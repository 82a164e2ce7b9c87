// perfbench — the repository benchmark.
//
//   perfbench --workload batch_wide|serve_long --seed N
//             --seconds S --trace 0|1 [--trace-out FILE]
//
// Options also take the --name=value form.
//
// Generates the workload's inputs from the seed, runs it against
// moldsched's public API for about S seconds, checks every output, and
// prints one line per metric followed by a JSON result line:
// {"correct":..,"attempted":..,"failed":..,"metrics":{..}}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
// records spans at every layer boundary (written to --trace-out) and the
// metrics are the per-layer ones.
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace {

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload batch_wide|serve_long --seed N"
               " --seconds S --trace 0|1 [--trace-out FILE]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return usage("bad argument '" + key + "'");
    key = key.substr(2);
    if (const auto eq = key.find('='); eq != std::string::npos) {
      args[key.substr(0, eq)] = key.substr(eq + 1);
    } else if (i + 1 < argc) {
      args[key] = argv[++i];
    } else {
      return usage("missing value for --" + key);
    }
  }
  for (const auto& [key, value] : args)
    if (key != "workload" && key != "seed" && key != "seconds" &&
        key != "trace" && key != "trace-out")
      return usage("unknown option --" + key);
  perfbench::RunOptions opt;
  try {
    opt.seed = std::stoull(args.at("seed"));
    opt.seconds = std::stod(args.at("seconds"));
    opt.trace = std::stoi(args.at("trace")) != 0;
  } catch (const std::exception&) {
    return usage("--seed, --seconds and --trace are required numbers");
  }
  if (!(opt.seconds >= 1.0 && opt.seconds <= 60.0))
    return usage("--seconds must be in [1, 60]");
  if (args.count("trace-out")) opt.trace_path = args["trace-out"];
  const std::string workload = args.count("workload") ? args["workload"] : "";

  perfbench::Report report;
  try {
    if (workload == "batch_wide")
      perfbench::run_batch_wide(opt, report);
    else if (workload == "serve_long")
      perfbench::run_serve_long(opt, report);
    else
      return usage("unknown workload '" + workload + "'");
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << workload << ": " << e.what() << '\n';
    return 1;
  }
  report.print(std::cout);
  return 0;
}
