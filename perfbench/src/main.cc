// Entry point of the end-to-end benchmark. perfbench/run.py builds this
// binary and passes its arguments through, adding --work-dir:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir>
//
// The last line of standard output is the JSON result.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "{wire_mixed|answers_full|delta_durable|frontier_solve} "
               "--seed N --seconds S --trace {0|1} --work-dir DIR\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage("bad --seed");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || args.seconds <= 0) return Usage("bad --seconds");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("bad --trace");
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.work_dir.empty()) return Usage("missing --work-dir");
  using Run = int (*)(const perfbench::Args&);
  struct Entry {
    const char* name;
    Run run;
  };
  const Entry entries[] = {
      {"wire_mixed", perfbench::RunWireMixed},
      {"answers_full", perfbench::RunAnswersFull},
      {"delta_durable", perfbench::RunDeltaDurable},
      {"frontier_solve", perfbench::RunFrontierSolve},
  };
  for (const Entry& e : entries) {
    if (args.workload != e.name) continue;
    return args.trace ? perfbench::RunTraced(args) : e.run(args);
  }
  return Usage("unknown --workload");
}
