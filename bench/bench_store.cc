// The durability price list, measured at the store layer: WAL append
// throughput under each sync policy (the knob a tenant actually turns),
// and crash-recovery time as a function of how much history sits in the
// WAL tail versus already folded into a snapshot.
//
// Appends run against the real filesystem (Env::Default) in a scratch
// directory under the working directory — fsync cost is the whole point
// of the policy comparison. Recovery benches do too, so the numbers
// include the actual read-validate-replay pipeline end to end.
//
// Acceptance tracking: BM_Store_Recovery (replay N deltas) versus
// BM_Store_RecoveryCompacted (same history, snapshotted) shows what
// compaction buys; BM_Store_WalAppend/<policy> shows what each fsync
// policy costs per acknowledged delta.

#include "bench_main.h"

#include "cqa.h"

#include <memory>
#include <string>
#include <unistd.h>
#include <vector>

namespace {

using namespace cqa;

/// A scratch store directory under the working directory, removed on
/// destruction. One per benchmark run, never shared.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag)
      : env_(store::Env::Default()),
        path_("bench_store.tmp-" + std::to_string(getpid()) + "-" + tag) {
    env_->RemoveDirRecursive(path_).ok();
    env_->CreateDirs(path_).ok();
  }
  ~ScratchDir() { env_->RemoveDirRecursive(path_).ok(); }

  store::Env* env() const { return env_; }
  std::string Sub(const std::string& name) const {
    return store::JoinPath(path_, name);
  }

 private:
  store::Env* env_;
  std::string path_;
};

/// The per-epoch delta: four inserts with distinct keys — a realistic
/// small write batch (~200 payload bytes).
Delta BenchDelta(uint64_t epoch) {
  Delta d;
  std::string e = std::to_string(epoch);
  for (int j = 0; j < 4; ++j) {
    d.Insert(Fact::Make("R", {"k" + e + "-" + std::to_string(j), "v"}, 1));
  }
  return d;
}

store::Wal::SyncPolicy PolicyArg(int64_t arg) {
  switch (arg) {
    case 0: return store::Wal::SyncPolicy::kAlways;
    case 1: return store::Wal::SyncPolicy::kInterval;
    default: return store::Wal::SyncPolicy::kNever;
  }
}

const char* PolicyName(int64_t arg) {
  switch (arg) {
    case 0: return "always";
    case 1: return "interval";
    default: return "never";
  }
}

/// One AppendDelta per iteration under the given sync policy,
/// compaction disabled so the WAL append path is isolated.
void BM_Store_WalAppend(benchmark::State& state) {
  ScratchDir scratch(std::string("append-") +
                     std::to_string(state.range(0)));
  store::DbStore::Options options;
  options.wal.policy = PolicyArg(state.range(0));
  options.compaction_threshold_bytes = 0;
  auto created = store::DbStore::Create(scratch.env(), scratch.Sub("db"),
                                        Database(), 0, options);
  if (!created.ok()) {
    state.SkipWithError(created.status().ToString().c_str());
    return;
  }
  store::DbStore& db_store = **created;

  uint64_t epoch = 0;
  for (auto _ : state) {
    Status st = db_store.AppendDelta(BenchDelta(epoch), epoch + 1);
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      return;
    }
    ++epoch;
  }
  store::DbStore::Stats stats = db_store.stats();
  state.SetLabel(PolicyName(state.range(0)));
  state.counters["appends_per_sec"] =
      benchmark::Counter(static_cast<double>(stats.appends),
                         benchmark::Counter::kIsRate);
  state.counters["wal_bytes_per_sec"] =
      benchmark::Counter(static_cast<double>(stats.appended_bytes),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Store_WalAppend)->DenseRange(0, 2, 1);

/// Seeds a store with `deltas` epochs of history. With `compact`, the
/// whole history is folded into a snapshot (empty WAL tail); without,
/// it all sits in the WAL and recovery replays every delta. The seeding
/// store folds it itself: a reopened store only compacts once its WAL
/// grows past the size it was opened at.
Status SeedHistory(const ScratchDir& scratch, const std::string& name,
                   int deltas, bool compact) {
  store::DbStore::Options options;
  options.wal.policy = store::Wal::SyncPolicy::kNever;  // fast seeding
  // 1 byte forces the fold at the MaybeCompact below; 0 disables it.
  options.compaction_threshold_bytes = compact ? 1 : 0;
  auto created = store::DbStore::Create(scratch.env(), scratch.Sub(name),
                                        Database(), 0, options);
  if (!created.ok()) return created.status();
  store::DbStore& db_store = **created;
  Database db;
  uint64_t epoch = 0;
  for (int i = 0; i < deltas; ++i) {
    Delta d = BenchDelta(epoch);
    ApplyDeltaToDatabase(d, &db).ok();
    CQA_RETURN_NOT_OK(db_store.AppendDelta(d, ++epoch));
  }
  CQA_RETURN_NOT_OK(db_store.Sync());
  if (compact) {
    db_store.MaybeCompact(db, epoch);
    if (db_store.stats().snapshots_written == 0) {
      return Status::Internal("forced compaction wrote no snapshot");
    }
  }
  return Status::OK();
}

/// Full recovery (DbStore::Open: read, validate checksums, replay the
/// WAL tail) per iteration, `range` deltas deep.
void BM_Store_Recovery(benchmark::State& state) {
  int deltas = static_cast<int>(state.range(0));
  ScratchDir scratch("recover");
  Status seeded = SeedHistory(scratch, "db", deltas, /*compact=*/false);
  if (!seeded.ok()) {
    state.SkipWithError(seeded.ToString().c_str());
    return;
  }
  store::DbStore::Options options;
  uint64_t replayed = 0;
  for (auto _ : state) {
    auto recovered =
        store::DbStore::Open(scratch.env(), scratch.Sub("db"), options);
    if (!recovered.ok()) {
      state.SkipWithError(recovered.status().ToString().c_str());
      return;
    }
    replayed = recovered->replayed;
    benchmark::DoNotOptimize(recovered->db);
  }
  state.counters["replayed"] = static_cast<double>(replayed);
  state.counters["deltas_per_sec"] = benchmark::Counter(
      static_cast<double>(replayed), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Store_Recovery)
    ->RangeMultiplier(4)
    ->Range(256, cqa_bench::RangeLimit(16384, 256));

/// The same history after compaction: recovery is a snapshot load plus
/// an empty WAL tail. The gap to BM_Store_Recovery is what the
/// compaction threshold is buying.
void BM_Store_RecoveryCompacted(benchmark::State& state) {
  int deltas = static_cast<int>(state.range(0));
  ScratchDir scratch("recover-compacted");
  Status seeded = SeedHistory(scratch, "db", deltas, /*compact=*/true);
  if (!seeded.ok()) {
    state.SkipWithError(seeded.ToString().c_str());
    return;
  }
  store::DbStore::Options options;
  uint64_t facts = 0;
  for (auto _ : state) {
    auto recovered =
        store::DbStore::Open(scratch.env(), scratch.Sub("db"), options);
    if (!recovered.ok()) {
      state.SkipWithError(recovered.status().ToString().c_str());
      return;
    }
    facts = static_cast<uint64_t>(recovered->db.size());
    benchmark::DoNotOptimize(recovered->db);
  }
  state.counters["facts"] = static_cast<double>(facts);
}
BENCHMARK(BM_Store_RecoveryCompacted)
    ->RangeMultiplier(4)
    ->Range(256, cqa_bench::RangeLimit(16384, 256));

}  // namespace
