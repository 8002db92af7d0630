// perfbench -- the repository benchmark's measuring binary.  perfbench/run.py
// builds it and runs one workload per process:
//
//   perfbench --workload <explore-seq|explore-par|explore-ooc|service-mix>
//             --seed N --seconds S --trace 0|1 --workdir DIR
//             --wfregsd PATH --references perfbench/reference_counts.txt
//   perfbench --self-test --workdir DIR
//   perfbench --regenerate-references OUT --workdir DIR
//
// The last line of standard output is the run's JSON result.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "workloads.hpp"

int main(int argc, char** argv) {
  perfbench::RunOptions o;
  o.start = perfbench::Clock::now();
  std::string mode = "run";
  std::string regenerate_out;
  for (int k = 1; k < argc; ++k) {
    const std::string flag = argv[k];
    const bool has_value = k + 1 < argc;
    if (flag == "--self-test") {
      mode = "self-test";
    } else if (flag == "--regenerate-references" && has_value) {
      mode = "regenerate";
      regenerate_out = argv[++k];
    } else if (flag == "--workload" && has_value) {
      o.workload = argv[++k];
    } else if (flag == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++k], nullptr, 10);
    } else if (flag == "--seconds" && has_value) {
      o.seconds = std::atoi(argv[++k]);
    } else if (flag == "--trace" && has_value) {
      o.trace = std::string(argv[++k]) == "1";
    } else if (flag == "--workdir" && has_value) {
      o.workdir = argv[++k];
    } else if (flag == "--wfregsd" && has_value) {
      o.wfregsd = argv[++k];
    } else if (flag == "--references" && has_value) {
      o.references = argv[++k];
    } else {
      std::fprintf(stderr, "perfbench: bad argument %s\n", flag.c_str());
      return 2;
    }
  }
  if (o.workdir.empty()) {
    std::fprintf(stderr, "perfbench: --workdir is required\n");
    return 2;
  }
  try {
    std::filesystem::create_directories(o.workdir);
    if (mode == "self-test") return perfbench::self_test(o.workdir);
    if (mode == "regenerate") {
      return perfbench::regenerate_references(regenerate_out, o.workdir);
    }
    if (o.seconds < 1) {
      std::fprintf(stderr, "perfbench: --seconds must be >= 1\n");
      return 2;
    }
    const perfbench::RunResult r = o.workload == "service-mix"
                                       ? perfbench::run_service(o)
                                       : perfbench::run_explore(o);
    perfbench::print_result(r);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
