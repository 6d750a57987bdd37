#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "serve/session.h"

/// \file
/// Measurement plumbing shared by every workload: the command line, the
/// clock, latency samples and their percentiles, peak RSS, the host-speed
/// probe, the answer-check ledger, the result line, and the span tracer
/// used by the traced (`--trace 1`) run.

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory (inside the checkout) for temp stores and the span dump.
  std::string work_dir;
};

using Clock = std::chrono::steady_clock;

inline double MicrosSince(Clock::time_point begin) {
  return std::chrono::duration<double, std::micro>(Clock::now() - begin)
      .count();
}
inline double SecondsSince(Clock::time_point begin) {
  return std::chrono::duration<double>(Clock::now() - begin).count();
}

/// Median of `v` (sorted copy); 0 when empty.
double Median(std::vector<double> v);
/// The q-quantile (0..1) by linear interpolation between closest ranks.
double Quantile(std::vector<double> v, double q);

/// Latency samples of one request class, in microseconds, each with the
/// time it completed.
struct Samples {
  std::vector<double> us;
  std::vector<Clock::time_point> at;
  /// Records a request that has just completed.
  void Add(double v) {
    us.push_back(v);
    at.push_back(Clock::now());
  }
  void Merge(const Samples& o) {
    us.insert(us.end(), o.us.begin(), o.us.end());
    at.insert(at.end(), o.at.begin(), o.at.end());
  }
};

/// Length of the windows FastWindows cuts the measured phase into.
constexpr double kWindowS = 1.0;
/// Share of the windows FastWindows keeps.
constexpr double kKeptShare = 0.5;

/// The measured phase cut into one-second windows, counted from the
/// first completion of any class, of which the faster half is kept: the
/// windows that completed the most requests, ties to the earlier window.
/// The end-to-end p95s are taken over the kept windows. A shared host
/// slows a run down now and then (a neighbour's burst, a vCPU
/// descheduled for a while), which only ever adds time and fills a
/// run's tail first; over the faster half of its seconds, the tail shows
/// what the program's own slow requests cost. A program whose tail is
/// slower is slower in every window, kept or not. Samples that complete
/// after the last whole window are dropped. With no whole window, every
/// sample is kept.
class FastWindows {
 public:
  explicit FastWindows(const std::vector<const Samples*>& classes);
  /// The q-quantile of those samples of `s` that completed in a kept
  /// window.
  double Quantile(const Samples& s, double q) const;
  size_t windows() const { return keep_.size(); }
  size_t kept() const { return kept_; }
  /// Completions per second over the kept windows, for comparison.
  double KeptRate() const;

 private:
  /// Index of the window `t` falls in; windows() when past the last.
  size_t WindowOf(Clock::time_point t) const;

  Clock::time_point first_;
  std::vector<double> counts_;
  std::vector<char> keep_;
  size_t kept_ = 0;
};

/// `num / den`, 0 when `den` is 0.
double Ratio(uint64_t num, uint64_t den);

/// Peak resident set size of this process (VmHWM), MiB.
double PeakRssMiB();

/// Milliseconds for a fixed single-thread integer loop. Printed before
/// and after each measured phase so a slow host can be told apart from
/// a slow change; it carries no bound.
double HostProbeMs();

/// The machine's steal time so far: ticks (USER_HZ) in which the
/// hypervisor ran something else while a vCPU of this machine had work,
/// summed over the vCPUs (the steal column of /proc/stat's `cpu` line);
/// 0 where it cannot be read.
uint64_t StealTicks();

/// What the host gave the benchmark at one moment.
struct HostSample {
  double probe_ms = 0;       // HostProbeMs
  uint64_t steal_ticks = 0;  // StealTicks, read after the probe
};
HostSample SampleHost();

/// The CPUs this process may run on, in increasing order.
std::vector<int> AllowedCpus();

/// While it lives, the calling thread runs only on `cpu`, and so does
/// every thread it creates meanwhile, for that thread's whole life (a
/// new thread inherits its creator's CPU mask). The destructor restores
/// the calling thread's mask. Where the kernel refuses, nothing changes
/// and ok() is false.
class ScopedPin {
 public:
  explicit ScopedPin(int cpu);
  ~ScopedPin();
  ScopedPin(const ScopedPin&) = delete;
  ScopedPin& operator=(const ScopedPin&) = delete;
  bool ok() const { return ok_; }

 private:
  cpu_set_t saved_;
  bool ok_ = false;
};

/// Answer-check and ops ledger of one run. Thread-compatible: each
/// caller thread keeps its own and the workload merges them.
struct Ledger {
  uint64_t attempted = 0;
  uint64_t failed = 0;      // errors returned by the program
  uint64_t mismatched = 0;  // wrong answers (also counted in failed)
  std::string first_problem;
  /// Both return false, so a set-up can `return ledger->Fail(...)`.
  bool Fail(const std::string& what);
  bool Mismatch(const std::string& what);
  void Merge(const Ledger& o);
};

/// One end-to-end or per-layer metric of the result line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Prints the human-readable metric table and, last, the one-line JSON
/// result. Returns the process exit code: 0 when every answer matched
/// and no op failed, 1 otherwise.
int PrintResult(const Ledger& ledger, const std::vector<Metric>& metrics);

/// Stable 64-bit FNV-1a over the interned names of `rows`, so a page of
/// answer rows can be compared against a precomputed fingerprint.
uint64_t RowsFingerprint(const cqa::Session::RowSet& rows, size_t begin,
                         size_t end);

// ------------------------------------------------------------- tracing

/// In-memory span log of the traced run. Single-threaded by design: the
/// traced run replays the request stream from one thread, so a plain
/// parent stack gives every span its cause. Spans are written out when
/// the run ends (`Dump`).
class Tracer {
 public:
  struct Span {
    int name = 0;       // index into the interned names
    int source = 0;     // workload replayed, same name table
    int parent = -1;    // index into spans(), -1 for a request root
    uint64_t request = 0;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int64_t child_ns = 0;  // summed durations of direct children
  };

  /// Spans on/off. Off, a ScopedSpan costs one branch; this is how the
  /// traced run measures its own overhead.
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  /// Tags every following span: the request id and the workload whose
  /// stream is being replayed.
  void BeginRequest(uint64_t id) { request_ = id; }
  void SetSource(const std::string& workload) { source_ = Intern(workload); }

  int Open(const std::string& name);
  void Close(int span);

  /// Self time per span name: total duration minus direct children.
  struct Totals {
    uint64_t calls = 0;
    double self_us = 0;
  };
  /// Totals of spans called `name` that were recorded while replaying
  /// `workload`.
  Totals Get(const std::string& workload, const std::string& name) const;

  /// Writes every span as a tab-separated line (see README.md) to
  /// `path`; returns false on I/O failure.
  bool Dump(const std::string& path) const;
  size_t size() const { return spans_.size(); }

 private:
  int Intern(const std::string& name);
  int64_t NowNs() const;

  bool enabled_ = true;
  uint64_t request_ = 0;
  int source_ = 0;
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::vector<std::string> names_;
  std::map<std::string, int> name_ids_;
  Clock::time_point epoch_ = Clock::now();
};

/// RAII span; a no-op when the tracer is null or disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr),
        id_(tracer_ != nullptr ? tracer_->Open(name) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->Close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
