#include "bench_main.h"

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace cqa_bench {

bool SmokeMode() {
  const char* smoke = std::getenv("CQA_BENCH_SMOKE");
  return smoke != nullptr && *smoke != '\0' && *smoke != '0';
}

int64_t RangeLimit(int64_t full, int64_t smoke) {
  return SmokeMode() ? smoke : full;
}

std::vector<int64_t> ThreadCounts() {
  const char* env = std::getenv("CQA_BENCH_THREADS");
  if (env != nullptr && *env != '\0') {
    std::vector<int64_t> counts;
    std::stringstream ss(env);
    std::string item;
    while (std::getline(ss, item, ',')) {
      long n = std::strtol(item.c_str(), nullptr, 10);
      if (n >= 1 && n <= 64) counts.push_back(n);
    }
    if (!counts.empty()) return counts;
  }
  if (SmokeMode()) return {1, 2};
  return {1, 2, 4, 8};
}

}  // namespace cqa_bench

namespace {

std::string JsonPath() {
  const char* path = std::getenv("CQA_BENCH_JSON");
  if (path != nullptr && *path != '\0') return path;
  // Smoke runs land in their own file so they never replace the real
  // numbers accumulated in BENCH_results.json.
  return cqa_bench::SmokeMode() ? "BENCH_smoke.json" : "BENCH_results.json";
}

/// The matcher label of every record a binary writes. Every run uses
/// the indexed matcher; the "naive" records already in the ledger come
/// from runs of an older build and are kept, never replaced.
constexpr char kMatcherLabel[] = "indexed";

std::string BaseName(const std::string& path) {
  size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

/// Console output as usual, plus one compact JSON record per benchmark:
/// its run, or under --benchmark_repetitions the median over the
/// repetitions.
class JsonAppendReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      bool repeated = run.repetitions > 1;
      bool recorded = repeated ? run.run_type == Run::RT_Aggregate &&
                                     run.aggregate_name == "median"
                               : run.run_type == Run::RT_Iteration;
      if (!recorded || run.error_occurred) continue;
      double iters = run.iterations > 0
                         ? static_cast<double>(run.iterations)
                         : 1.0;
      double wall_s = run.real_accumulated_time / iters;
      double facts = 0;
      auto it = run.counters.find("facts");
      if (it != run.counters.end()) facts = it->second.value;
      std::ostringstream line;
      line.precision(6);
      line << "{\"bench\":\"" << bench_ << "\",\"name\":\""
           << run.run_name.str() << "\",\"matcher\":\"" << kMatcherLabel
           << "\",\"wall_ms\":" << wall_s * 1e3 << ",\"facts\":" << facts
           << ",\"facts_per_sec\":"
           << (wall_s > 0 ? facts / wall_s : 0);
      if (repeated) line << ",\"repetitions\":" << run.repetitions;
      // Plan-cache, serving and memory counters, when the benchmark
      // sets them.
      for (const char* key :
           {"plan_hits", "plan_misses", "hit_rate", "qps", "threads",
            "parallel_chunks", "bytes_per_fact", "index_bytes_per_fact",
            "full_per_request"}) {
        auto cit = run.counters.find(key);
        if (cit != run.counters.end()) {
          line << ",\"" << key << "\":" << cit->second.value;
        }
      }
      line << "}";
      records_.push_back(line.str());
    }
    ConsoleReporter::ReportRuns(runs);
  }

  void set_bench(std::string bench) { bench_ = std::move(bench); }

  /// Rewrites the JSON array: keeps records from other binaries and
  /// this binary's "naive" records, replaces its "indexed" ones.
  void WriteJson() const {
    std::string self_key =
        "\"bench\":\"" + bench_ + "\",";
    std::string mode_key =
        std::string("\"matcher\":\"") + kMatcherLabel + "\"";
    std::vector<std::string> kept;
    std::ifstream in(JsonPath());
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] != '{') continue;
      if (line.find(self_key) != std::string::npos &&
          line.find(mode_key) != std::string::npos) {
        continue;
      }
      if (line.back() == ',') line.pop_back();
      kept.push_back(line);
    }
    in.close();
    kept.insert(kept.end(), records_.begin(), records_.end());
    // Write-then-rename so a reader (or a concurrently finishing bench
    // binary) never sees a half-written file.
    std::string tmp = JsonPath() + "." + bench_ + ".tmp";
    {
      std::ofstream out(tmp, std::ios::trunc);
      out << "[\n";
      for (size_t i = 0; i < kept.size(); ++i) {
        out << kept[i] << (i + 1 < kept.size() ? "," : "") << "\n";
      }
      out << "]\n";
    }
    std::rename(tmp.c_str(), JsonPath().c_str());
  }

 private:
  std::string bench_;
  std::vector<std::string> records_;
};

}  // namespace

int main(int argc, char** argv) {
  // `--smoke` must be visible at benchmark *registration* (static init),
  // which has already happened by now — so the flag re-execs this binary
  // once with CQA_BENCH_SMOKE set; the second pass sees the variable and
  // registers the small ranges.
  bool smoke_flag = false;
  const char* threads_flag = nullptr;
  for (int i = 1; i < argc; ++i) {
    smoke_flag = smoke_flag || std::strcmp(argv[i], "--smoke") == 0;
    if (std::strncmp(argv[i], "--threads=", strlen("--threads=")) == 0) {
      threads_flag = argv[i] + strlen("--threads=");
    }
  }
  // `--threads=LIST` works like `--smoke`: ThreadCounts() is consulted
  // at registration, so the flag becomes CQA_BENCH_THREADS before the
  // re-exec below (one re-exec covers both flags).
  bool need_reexec =
      (smoke_flag && !cqa_bench::SmokeMode()) ||
      (threads_flag != nullptr && std::getenv("CQA_BENCH_THREADS") == nullptr);
  if (need_reexec) {
    if (smoke_flag) setenv("CQA_BENCH_SMOKE", "1", 1);
    if (threads_flag != nullptr) setenv("CQA_BENCH_THREADS", threads_flag, 1);
    execv("/proc/self/exe", argv);  // Linux
    execv(argv[0], argv);           // fallback: invoked by path
    std::fprintf(stderr, "bench_main: --smoke/--threads re-exec failed\n");
    return 1;
  }

  JsonAppendReporter reporter;
  reporter.set_bench(BaseName(argv[0]));
  // `--filter=regex` is shorthand for google benchmark's
  // --benchmark_filter; rewrite it (and drop the handled --smoke) before
  // Initialize consumes the args.
  std::vector<std::string> rewritten;
  rewritten.reserve(argc);
  for (int i = 0; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--smoke") continue;
    if (arg.rfind("--threads=", 0) == 0) continue;
    if (arg.rfind("--filter=", 0) == 0) {
      arg = "--benchmark_filter=" + arg.substr(strlen("--filter="));
    } else if (arg == "--filter" && i + 1 < argc) {
      arg = std::string("--benchmark_filter=") + argv[++i];
    }
    rewritten.push_back(std::move(arg));
  }
  std::vector<char*> args;
  args.reserve(rewritten.size());
  for (std::string& s : rewritten) args.push_back(s.data());
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks(&reporter);
  reporter.WriteJson();
  benchmark::Shutdown();
  return 0;
}
