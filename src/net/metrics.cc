#include "net/metrics.h"

#include <set>
#include <sstream>
#include <utility>

#include "net/codec.h"

namespace cqa {
namespace net {

namespace {

/// The series that report a current level, which can fall, rather than
/// a running total.
bool IsGauge(const std::string& key) {
  static const std::set<std::string> kGauges = {
      "plan_cache.entries",        "plan_cache.negative_entries",
      "plan_cache.capacity",       "backend.sqlite_databases",
      "backend.degraded_backends", "server.connections_active",
      "service.databases",         "service.prepared_queries",
      "service.open_cursors",      "store.durable_databases",
      "store.read_only_databases", "store.wal_bytes",
      "session.index_bytes",
  };
  return kGauges.count(key) != 0;
}

/// "plan_cache.hits" -> "cqa_plan_cache_hits"; per-solver counters
/// ("solver.sat.calls") become labeled series
/// (`cqa_solver_calls_total{kind="sat"}`).
void RenderOne(std::ostringstream* os, const std::string& key,
               uint64_t value) {
  if (key.compare(0, 7, "solver.") == 0) {
    size_t dot = key.rfind('.');
    std::string kind = key.substr(7, dot - 7);
    std::string counter = key.substr(dot + 1);
    *os << "cqa_solver_" << counter << "_total{kind=\"" << kind << "\"} "
        << value << "\n";
    return;
  }
  std::string name = "cqa_";
  for (char c : key) name.push_back(c == '.' ? '_' : c);
  *os << "# TYPE " << name << (IsGauge(key) ? " gauge\n" : " counter\n")
      << name << " " << value << "\n";
}

}  // namespace

std::string RenderPrometheus(const std::map<std::string, uint64_t>& counters,
                             const MetricGauges& extra) {
  std::ostringstream os;
  bool typed_solver = false;
  for (const auto& [key, value] : counters) {
    if (key.compare(0, 7, "solver.") == 0 && !typed_solver) {
      // One TYPE line per labeled family, not per label value.
      os << "# TYPE cqa_solver_calls_total counter\n"
         << "# TYPE cqa_solver_certain_total counter\n";
      typed_solver = true;
    }
    RenderOne(&os, key, value);
  }
  for (const auto& [key, value] : extra) {
    RenderOne(&os, key, value);
  }
  return os.str();
}

MetricsExporter::MetricsExporter(const Service* service,
                                 const Options& options)
    : service_(service),
      options_(options),
      start_(std::chrono::steady_clock::now()) {}

MetricsExporter::~MetricsExporter() { Stop(); }

void MetricsExporter::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (running_) return;
  running_ = true;
  stop_ = false;
  thread_ = std::thread(&MetricsExporter::Run, this);
}

void MetricsExporter::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) return;
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
  std::lock_guard<std::mutex> lock(mu_);
  running_ = false;
}

uint64_t MetricsExporter::SampleNow() {
  // Stats() is read OUTSIDE the exporter lock — it takes the service's
  // own locks and must not serialize against Series() readers.
  Result<Service::StatsResponse> stats =
      service_->Stats(Service::StatsRequest{});
  Sample sample;
  sample.elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                          std::chrono::steady_clock::now() - start_)
                          .count();
  if (stats.ok()) sample.counters = FlattenStats(*stats);
  std::lock_guard<std::mutex> lock(mu_);
  sample.tick = next_tick_++;
  uint64_t tick = sample.tick;
  ring_.push_back(std::move(sample));
  while (ring_.size() > options_.capacity) ring_.pop_front();
  return tick;
}

std::vector<MetricsExporter::Sample> MetricsExporter::Series() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<Sample>(ring_.begin(), ring_.end());
}

uint64_t MetricsExporter::samples_taken() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_tick_ - 1;
}

void MetricsExporter::Run() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (cv_.wait_for(lock, options_.interval, [this] { return stop_; })) {
        return;
      }
    }
    SampleNow();
  }
}

}  // namespace net
}  // namespace cqa
