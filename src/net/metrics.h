#ifndef CQA_NET_METRICS_H_
#define CQA_NET_METRICS_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/service.h"

/// \file
/// Metrics export for the wire server. Two consumers share one source
/// of truth — `net::FlattenStats` over `Service::Stats()`, so a counter
/// can never appear under different names in different exports:
///
///   * the kMetrics wire verb (and anything else that wants plaintext)
///     renders the CURRENT counters in the Prometheus text exposition
///     format via `RenderPrometheus`;
///   * a background `MetricsExporter` thread snapshots the counters on
///     a fixed interval into a bounded in-memory ring — the exportable
///     TIME SERIES an external collector (or the load generator's
///     summary) reads via `Series()` without ever touching the serving
///     hot path.
///
/// Sampling cost is one `Service::Stats` call per interval — a handful
/// of mutex acquisitions, no session-pool work — so a 1 s interval is
/// invisible next to real traffic.

namespace cqa {
namespace net {

/// Extra process-level counters a caller can merge into the rendering
/// (the server passes its connection/request/shed counters here).
using MetricGauges = std::map<std::string, uint64_t>;

/// Renders counters as Prometheus text exposition: one
/// `# TYPE cqa_<name> counter` + `cqa_<name> <value>` pair per entry,
/// typed `gauge` instead for the levels (`plan_cache.entries`,
/// `plan_cache.negative_entries`, `backend.sqlite_databases`,
/// `backend.degraded_backends`, `server.connections_active`).
/// Dots in the flattened names become underscores; per-solver counters
/// become labeled series (`cqa_solver_calls_total{kind="sat"}`).
std::string RenderPrometheus(const std::map<std::string, uint64_t>& counters,
                             const MetricGauges& extra = {});

class MetricsExporter {
 public:
  struct Options {
    /// Snapshot cadence.
    std::chrono::milliseconds interval{1000};
    /// Samples retained (ring buffer; oldest dropped first).
    size_t capacity = 512;
  };

  /// One snapshot of every flattened counter, stamped with the
  /// exporter's monotone tick and milliseconds since Start().
  struct Sample {
    uint64_t tick = 0;
    int64_t elapsed_ms = 0;
    std::map<std::string, uint64_t> counters;
  };

  /// `service` must outlive the exporter.
  MetricsExporter(const Service* service, const Options& options);
  ~MetricsExporter();

  MetricsExporter(const MetricsExporter&) = delete;
  MetricsExporter& operator=(const MetricsExporter&) = delete;

  /// Spawns the sampling thread (idempotent).
  void Start();
  /// Stops and joins it (idempotent; also run by the destructor).
  void Stop();

  /// Takes one sample NOW (also what the background thread calls).
  /// Returns the sample's tick.
  uint64_t SampleNow();

  /// Copy of the retained series, oldest first.
  std::vector<Sample> Series() const;

  /// Number of samples taken since construction (monotone, not capped
  /// by the ring capacity).
  uint64_t samples_taken() const;

 private:
  void Run();

  const Service* service_;
  Options options_;
  std::chrono::steady_clock::time_point start_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool running_ = false;
  bool stop_ = false;
  uint64_t next_tick_ = 1;
  std::deque<Sample> ring_;
  std::thread thread_;
};

}  // namespace net
}  // namespace cqa

#endif  // CQA_NET_METRICS_H_
