// perfbench — the repository's benchmark binary.
//
//   perfbench --workload city|gateway|train|learn --seed N --seconds S
//             --trace 0|1 --work-dir DIR [--short] [--inject-failure]
//
// Prints the host facts as one JSON line, then the result as the LAST line
// of standard output: {"correct", "attempted", "failed", "metrics"}. The
// untraced run (--trace 0) reports the end-to-end metrics; the traced run
// (--trace 1) the per-layer metrics. Exits 1 when an operation or an
// output check failed, 2 on a usage error.
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "common.hpp"

namespace {

int usage(const char* message) {
  std::cerr << "perfbench: " << message << "\n"
            << "usage: perfbench --workload city|gateway|train|learn --seed N "
               "--seconds S --trace 0|1 --work-dir DIR [--short] "
               "[--inject-failure]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    try {
      if (arg == "--workload" && has_value) {
        options.workload = argv[++i];
      } else if (arg == "--seed" && has_value) {
        options.seed = std::stoull(argv[++i]);
        have_seed = true;
      } else if (arg == "--seconds" && has_value) {
        options.seconds = std::stod(argv[++i]);
        have_seconds = options.seconds > 0;
      } else if (arg == "--trace" && has_value) {
        const std::string v = argv[++i];
        if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
        options.trace = v == "1";
        have_trace = true;
      } else if (arg == "--work-dir" && has_value) {
        options.work_dir = argv[++i];
      } else if (arg == "--short") {
        options.short_mode = true;
      } else if (arg == "--inject-failure") {
        options.inject_failure = true;
      } else {
        return usage(("unknown or incomplete argument " + arg).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + arg).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace ||
      options.work_dir.empty()) {
    return usage(
        "--seed, --seconds (> 0), --trace and --work-dir are required");
  }

  perfbench::Runner runner = nullptr;
  if (options.workload == "city") runner = perfbench::run_city;
  if (options.workload == "gateway") runner = perfbench::run_gateway;
  if (options.workload == "train") runner = perfbench::run_train;
  if (options.workload == "learn") runner = perfbench::run_learn;
  if (runner == nullptr) return usage("unknown workload");

  if (options.inject_failure && options.workload != "gateway") {
    return usage("--inject-failure applies to the gateway workload only");
  }
  std::filesystem::create_directories(options.work_dir);

  std::cout << perfbench::host_json() << std::endl;
  perfbench::Report report;
  try {
    report = runner(options);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << options.workload << " aborted: " << e.what()
              << "\n";
    return 1;
  }
  report.set("error_ratio", static_cast<double>(report.failed()) /
                               static_cast<double>(report.attempted()));
  const auto& specs = options.trace ? perfbench::per_layer_metrics()
                                    : perfbench::end_to_end_metrics();
  std::cout << report.json(specs) << std::endl;
  return report.correct() ? 0 : 1;
}
