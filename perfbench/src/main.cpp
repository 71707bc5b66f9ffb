// Entry point of the production-path benchmark.
//
//   leishen_perfbench --workload backfill|live|api --seed N --seconds S
//                     --trace 0|1 --work-dir DIR [--trace-dir DIR]
//   leishen_perfbench --selftest
//
// The last line of standard output is the JSON result. Diagnostics go to
// standard error. The exit code is 0 only when every correctness check
// passed.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "common.h"
#include "workloads.h"

int main(int argc, char** argv) {
  using namespace perfbench;
  (void)process_start;  // pins set-up timing to the process's start
  options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--selftest") return run_selftest();
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", a.c_str());
      return 2;
    }
    const std::string v = argv[++i];
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::atof(v.c_str());
    } else if (a == "--trace") {
      opt.trace = v == "1";
    } else if (a == "--work-dir") {
      opt.work_dir = v;
    } else if (a == "--trace-dir") {
      opt.trace_dir = v;
    } else {
      std::fprintf(stderr, "unknown option %s\n", a.c_str());
      return 2;
    }
  }
  if (opt.work_dir.empty() || opt.seconds <= 0.0) {
    std::fprintf(stderr, "--work-dir and a positive --seconds are required\n");
    return 2;
  }
  if (opt.trace_dir.empty()) opt.trace_dir = opt.work_dir;
  std::filesystem::create_directories(opt.work_dir);
  std::filesystem::create_directories(opt.trace_dir);

  run_result res;
  try {
    if (opt.workload == "backfill") {
      run_backfill(opt, res);
    } else if (opt.workload == "live") {
      run_live(opt, res);
    } else if (opt.workload == "api") {
      run_api(opt, res);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "run aborted: %s\n", e.what());
    remove_tree(opt.work_dir);
    return 1;
  }
  remove_tree(opt.work_dir);
  for (const std::string& p : res.problems) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", p.c_str());
  }
  std::cout << res.json() << std::endl;
  return res.correct ? 0 : 1;
}
