#include "common.h"

#include <pthread.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/interner.h"

namespace perfbench {

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

FastWindows::FastWindows(const std::vector<const Samples*>& classes) {
  std::vector<Clock::time_point> at;
  for (const Samples* s : classes) {
    at.insert(at.end(), s->at.begin(), s->at.end());
  }
  if (at.empty()) return;
  auto [first, last] = std::minmax_element(at.begin(), at.end());
  first_ = *first;
  double span = std::chrono::duration<double>(*last - *first).count();
  counts_.assign(static_cast<size_t>(span / kWindowS), 0);
  for (Clock::time_point t : at) {
    size_t w = WindowOf(t);
    if (w < counts_.size()) counts_[w] += 1;
  }
  std::vector<size_t> order(counts_.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return counts_[a] > counts_[b];
  });
  keep_.assign(counts_.size(), 0);
  kept_ = static_cast<size_t>(
      std::ceil(kKeptShare * static_cast<double>(counts_.size())));
  for (size_t i = 0; i < kept_; ++i) keep_[order[i]] = 1;
}

size_t FastWindows::WindowOf(Clock::time_point t) const {
  double s = std::chrono::duration<double>(t - first_).count();
  size_t w = static_cast<size_t>(s / kWindowS);
  return std::min(w, counts_.size());
}

double FastWindows::KeptRate() const {
  double sum = 0;
  for (size_t w = 0; w < counts_.size(); ++w) {
    if (keep_[w]) sum += counts_[w];
  }
  return kept_ == 0 ? 0 : sum / (static_cast<double>(kept_) * kWindowS);
}

double FastWindows::Quantile(const Samples& s, double q) const {
  std::vector<double> v;
  for (size_t i = 0; i < s.us.size(); ++i) {
    size_t w = WindowOf(s.at[i]);
    if (kept_ == 0 || (w < counts_.size() && keep_[w])) v.push_back(s.us[i]);
  }
  return perfbench::Quantile(std::move(v), q);
}

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0;
}

double HostProbeMs() {
  // A dependent multiply-xorshift chain: no memory traffic, no syscalls,
  // so it tracks only the speed the host gives this thread.
  auto begin = Clock::now();
  uint64_t x = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 20'000'000; ++i) {
    x ^= x >> 29;
    x *= 0xbf58476d1ce4e5b9ull;
  }
  volatile uint64_t sink = x;
  (void)sink;
  return MicrosSince(begin) / 1000.0;
}

uint64_t StealTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  uint64_t field[8] = {};
  stat >> cpu;
  for (uint64_t& f : field) stat >> f;
  return stat && cpu == "cpu" ? field[7] : 0;
}

HostSample SampleHost() {
  HostSample s;
  s.probe_ms = HostProbeMs();
  s.steal_ticks = StealTicks();
  return s;
}

std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

ScopedPin::ScopedPin(int cpu) {
  CPU_ZERO(&saved_);
  if (pthread_getaffinity_np(pthread_self(), sizeof(saved_), &saved_) != 0) {
    return;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  ok_ = pthread_setaffinity_np(pthread_self(), sizeof(one), &one) == 0;
}

ScopedPin::~ScopedPin() {
  if (ok_) pthread_setaffinity_np(pthread_self(), sizeof(saved_), &saved_);
}

bool Ledger::Fail(const std::string& what) {
  ++failed;
  if (first_problem.empty()) first_problem = what;
  return false;
}

bool Ledger::Mismatch(const std::string& what) {
  ++mismatched;
  return Fail("answer mismatch: " + what);
}

void Ledger::Merge(const Ledger& o) {
  attempted += o.attempted;
  failed += o.failed;
  mismatched += o.mismatched;
  if (first_problem.empty()) first_problem = o.first_problem;
}

int PrintResult(const Ledger& ledger, const std::vector<Metric>& metrics) {
  bool correct = ledger.mismatched == 0 && ledger.failed == 0;
  std::printf("ops: attempted=%llu failed=%llu mismatched=%llu\n",
              static_cast<unsigned long long>(ledger.attempted),
              static_cast<unsigned long long>(ledger.failed),
              static_cast<unsigned long long>(ledger.mismatched));
  if (!ledger.first_problem.empty()) {
    std::printf("first problem: %s\n", ledger.first_problem.c_str());
  }
  for (const Metric& m : metrics) {
    std::printf("metric %-30s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<uint64_t>(
                                    ledger.attempted, 1));
  json += ", \"failed\": " + std::to_string(ledger.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

uint64_t RowsFingerprint(const cqa::Session::RowSet& rows, size_t begin,
                         size_t end) {
  uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](const std::string& s) {
    for (unsigned char c : s) {
      h ^= c;
      h *= 0x100000001b3ull;
    }
    h ^= 0xff;
    h *= 0x100000001b3ull;
  };
  for (size_t i = begin; i < end && i < rows.size(); ++i) {
    for (cqa::SymbolId v : rows[i]) mix(cqa::SymbolName(v));
    mix("|");
  }
  return h;
}

// ------------------------------------------------------------- tracing

int Tracer::Intern(const std::string& name) {
  auto it = name_ids_.find(name);
  if (it != name_ids_.end()) return it->second;
  int id = static_cast<int>(names_.size());
  names_.push_back(name);
  name_ids_.emplace(name, id);
  return id;
}

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

int Tracer::Open(const std::string& name) {
  Span span;
  span.name = Intern(name);
  span.source = source_;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.request = request_;
  int id = static_cast<int>(spans_.size());
  stack_.push_back(id);
  span.start_ns = NowNs();
  spans_.push_back(span);
  return id;
}

void Tracer::Close(int id) {
  Span& span = spans_[id];
  span.end_ns = NowNs();
  stack_.pop_back();
  if (span.parent >= 0) {
    spans_[span.parent].child_ns += span.end_ns - span.start_ns;
  }
}

Tracer::Totals Tracer::Get(const std::string& workload,
                           const std::string& name) const {
  Totals t;
  auto src = name_ids_.find(workload);
  auto nm = name_ids_.find(name);
  if (src == name_ids_.end() || nm == name_ids_.end()) return t;
  for (const Span& s : spans_) {
    if (s.name != nm->second || s.source != src->second) continue;
    double self = static_cast<double>(s.end_ns - s.start_ns - s.child_ns) /
                  1000.0;
    ++t.calls;
    t.self_us += self;
  }
  return t;
}

bool Tracer::Dump(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "span\tparent\trequest\tworkload\tname\tstart_ns\tend_ns\t"
                  "self_ns\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu\t%d\t%llu\t%s\t%s\t%lld\t%lld\t%lld\n", i, s.parent,
                 static_cast<unsigned long long>(s.request),
                 names_[s.source].c_str(), names_[s.name].c_str(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.end_ns - s.start_ns - s.child_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
