#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cq/parser.h"
#include "db/database.h"
#include "serve/service.h"
#include "serve/session.h"
#include "solve_helpers.h"
#include "store/io.h"
#include "store/snapshot.h"
#include "store/store.h"
#include "store/wal.h"
#include "util/status.h"

/// Crash-recovery differentials. The oracle everywhere is
/// `ApplyDeltaToDatabase` — replay k deltas onto a bare database — and
/// the claim under test is that a store crashed at ANY point recovers
/// to exactly some committed prefix of that history, with the serving
/// answers to match.

namespace cqa {
namespace {

using store::DbStore;
using store::JoinPath;
using store::MemEnv;
using store::SnapshotFileName;
using store::Wal;
using store::WalFileName;

std::vector<Fact> SortedFacts(const Database& db) {
  std::vector<Fact> out(db.facts().begin(), db.facts().end());
  std::sort(out.begin(), out.end());
  return out;
}

/// Deterministic delta history over R(a|b), S(b|c): inserts, block
/// uncertainty, and block rewrites — every delta valid at its prefix.
Delta HistoryDelta(int i) {
  std::string a = "a" + std::to_string(i);
  std::string b = "b" + std::to_string(i);
  Delta d;
  d.Insert(Fact::Make("R", {a, b}, 1));
  d.Insert(Fact::Make("S", {b, "c"}, 1));
  if (i % 3 == 0) d.Insert(Fact::Make("R", {a, "dead"}, 1));
  if (i >= 2 && i % 4 == 2) {
    std::string old = "a" + std::to_string(i - 2);
    d.ReplaceBlock(InternSymbol("R"), {InternSymbol(old)},
                   {Fact::Make("R", {old, "rewired"}, 1)});
  }
  return d;
}

/// Oracle: the database after the first `k` history deltas.
Database OraclePrefix(int k) {
  Database db;
  for (int i = 0; i < k; ++i) {
    EXPECT_TRUE(ApplyDeltaToDatabase(HistoryDelta(i), &db).ok()) << i;
  }
  return db;
}

/// Copies the (post-crash) durable tree under `path` into `to` — the
/// disk a NEW process would see, immune to whatever the old process's
/// destructors write afterwards.
void CopyTree(MemEnv& from, MemEnv& to, const std::string& path) {
  if (from.DirExists(path)) {
    ASSERT_TRUE(to.CreateDirs(path).ok());
    Result<std::vector<std::string>> names = from.ListDir(path);
    ASSERT_TRUE(names.ok());
    for (const std::string& name : *names) {
      CopyTree(from, to, JoinPath(path, name));
    }
  } else {
    Result<std::string> content = from.FileContent(path);
    ASSERT_TRUE(content.ok());
    ASSERT_TRUE(to.SetFileContent(path, *content).ok());
  }
}

Service::Options DurableOptions(store::Env* env, Wal::SyncPolicy policy) {
  Service::Options options;
  options.num_threads = 2;
  options.durability.dir = "/stores";
  options.durability.env = env;
  options.durability.wal.policy = policy;
  options.durability.wal.sync_interval_bytes = 256;
  options.durability.wal.buffer_bytes = 64;
  return options;
}

// ------------------------------------------- byte-level differential

/// THE differential: a WAL cut at EVERY byte length must recover to
/// exactly the longest committed prefix — torn tail iff the cut falls
/// inside a record, never DataLoss, database equal to the oracle.
TEST(RecoveryDifferentialTest, EveryWalTruncationRecoversACleanPrefix) {
  constexpr int kDeltas = 16;
  MemEnv env;
  DbStore::Options options;
  options.wal.policy = Wal::SyncPolicy::kAlways;
  Result<std::unique_ptr<DbStore>> created =
      DbStore::Create(&env, "/db", Database(), 0, options);
  ASSERT_TRUE(created.ok()) << created.status();

  // boundaries[k] = WAL size after k committed deltas.
  std::vector<uint64_t> boundaries = {
      *env.FileSize(JoinPath("/db", WalFileName(0)))};
  std::vector<std::vector<Fact>> oracle = {SortedFacts(OraclePrefix(0))};
  for (int i = 0; i < kDeltas; ++i) {
    ASSERT_TRUE((*created)->AppendDelta(HistoryDelta(i), i + 1).ok());
    boundaries.push_back(*env.FileSize(JoinPath("/db", WalFileName(0))));
    oracle.push_back(SortedFacts(OraclePrefix(i + 1)));
  }
  std::string snapshot = *env.FileContent(JoinPath("/db", SnapshotFileName(0)));
  std::string wal = *env.FileContent(JoinPath("/db", WalFileName(0)));
  ASSERT_EQ(wal.size(), boundaries.back());

  for (uint64_t cut = boundaries.front(); cut <= wal.size(); ++cut) {
    MemEnv crashed;
    ASSERT_TRUE(crashed.CreateDirs("/db").ok());
    ASSERT_TRUE(
        crashed.SetFileContent(JoinPath("/db", SnapshotFileName(0)), snapshot)
            .ok());
    ASSERT_TRUE(crashed
                    .SetFileContent(JoinPath("/db", WalFileName(0)),
                                    wal.substr(0, cut))
                    .ok());

    Result<DbStore::Recovered> recovered =
        DbStore::Open(&crashed, "/db", options);
    ASSERT_TRUE(recovered.ok()) << "cut=" << cut << ": "
                                << recovered.status();

    // The longest committed prefix at this cut.
    size_t k = 0;
    while (k + 1 < boundaries.size() && boundaries[k + 1] <= cut) ++k;
    EXPECT_EQ(recovered->epoch, k) << "cut=" << cut;
    EXPECT_EQ(recovered->replayed, k) << "cut=" << cut;
    EXPECT_EQ(recovered->torn_tail, cut != boundaries[k]) << "cut=" << cut;
    EXPECT_EQ(SortedFacts(recovered->db), oracle[k]) << "cut=" << cut;
    // The truncated log was repaired in place: a second open is clean.
    EXPECT_EQ(*crashed.FileSize(JoinPath("/db", WalFileName(0))),
              boundaries[k])
        << "cut=" << cut;
  }
}

// ----------------------------------------- service-level differential

/// Crash after every prefix of the history, reopen through the Service
/// front door, and differential-check both the database and the served
/// certain answers against a fresh oracle replay.
TEST(RecoveryDifferentialTest, ServiceRecoversAndServesEveryPrefix) {
  constexpr int kDeltas = 10;
  Query q = MustParseQuery("R(x | y), S(y | z)");
  std::vector<SymbolId> fv = {InternSymbol("x")};

  for (int k = 0; k <= kDeltas; ++k) {
    MemEnv env;
    {
      Service writer(DurableOptions(&env, Wal::SyncPolicy::kAlways));
      ASSERT_TRUE(writer.CreateDatabase("db", Database()).ok());
      for (int i = 0; i < k; ++i) {
        Service::DeltaRequest req;
        req.database = "db";
        req.delta = HistoryDelta(i);
        Result<Service::DeltaResponse> applied = writer.ApplyDelta(req);
        ASSERT_TRUE(applied.ok()) << applied.status();
        EXPECT_EQ(applied->epoch, static_cast<uint64_t>(i) + 1);
      }
    }
    env.SimulateCrash();  // kAlways: acknowledged == durable

    Service reader(DurableOptions(&env, Wal::SyncPolicy::kAlways));
    EXPECT_EQ(reader.ListStores(), std::vector<std::string>{"db"});
    Result<Service::OpenStoreResponse> opened = reader.OpenStore("db");
    ASSERT_TRUE(opened.ok()) << "k=" << k << ": " << opened.status();
    EXPECT_EQ(opened->epoch, static_cast<uint64_t>(k));
    EXPECT_FALSE(opened->torn_tail_recovered);

    Database oracle = OraclePrefix(k);
    Service::CertainAnswersRequest req;
    req.database = "db";
    req.query = q;
    req.free_vars = fv;
    Result<Service::CertainAnswersResponse> served =
        reader.CertainAnswers(req);
    ASSERT_TRUE(served.ok()) << served.status();
    Result<Session::RowSet> expected = testutil::CertainAnswers(oracle, q, fv);
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(served->rows, *expected) << "k=" << k;
    EXPECT_EQ(served->epoch, static_cast<uint64_t>(k));

    // The epoch chain continues where it left off.
    Service::DeltaRequest next;
    next.database = "db";
    next.delta = HistoryDelta(k);
    Result<Service::DeltaResponse> applied = reader.ApplyDelta(next);
    ASSERT_TRUE(applied.ok()) << applied.status();
    EXPECT_EQ(applied->epoch, static_cast<uint64_t>(k) + 1);
  }
}

TEST(RecoveryDifferentialTest, TornWalTailThroughTheServiceFrontDoor) {
  constexpr int kDeltas = 6;
  MemEnv env;
  {
    Service writer(DurableOptions(&env, Wal::SyncPolicy::kAlways));
    ASSERT_TRUE(writer.CreateDatabase("db", Database()).ok());
    for (int i = 0; i < kDeltas; ++i) {
      Service::DeltaRequest req;
      req.database = "db";
      req.delta = HistoryDelta(i);
      ASSERT_TRUE(writer.ApplyDelta(req).ok());
    }
  }
  // Tear the final record by hand — the signature of SIGKILL mid-append.
  std::string wal_path = JoinPath("/stores/db", WalFileName(0));
  std::string wal = *env.FileContent(wal_path);
  ASSERT_TRUE(env.SetFileContent(wal_path, wal.substr(0, wal.size() - 5))
                  .ok());

  Service reader(DurableOptions(&env, Wal::SyncPolicy::kAlways));
  Result<Service::OpenStoreResponse> opened = reader.OpenStore("db");
  ASSERT_TRUE(opened.ok()) << opened.status();
  EXPECT_TRUE(opened->torn_tail_recovered);
  EXPECT_EQ(opened->epoch, static_cast<uint64_t>(kDeltas) - 1);
  EXPECT_EQ(opened->replayed, static_cast<uint64_t>(kDeltas) - 1);

  Result<Service::StatsResponse> stats = reader.Stats({});
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->store.torn_tails_recovered, 1u);

  // Mid-log corruption, by contrast, must refuse with DataLoss.
  std::string snapshot =
      *env.FileContent(JoinPath("/stores/db", SnapshotFileName(0)));
  std::string flipped = wal;
  flipped[store::kFileHeaderSize + 9] ^= 1;  // a bit of the FIRST record
  MemEnv corrupt;
  ASSERT_TRUE(corrupt.CreateDirs("/stores/db").ok());
  ASSERT_TRUE(corrupt
                  .SetFileContent(JoinPath("/stores/db", SnapshotFileName(0)),
                                  snapshot)
                  .ok());
  ASSERT_TRUE(
      corrupt.SetFileContent(JoinPath("/stores/db", WalFileName(0)), flipped)
          .ok());
  Service refuser(DurableOptions(&corrupt, Wal::SyncPolicy::kAlways));
  EXPECT_EQ(refuser.OpenStore("db").status().code(), StatusCode::kDataLoss);
}

/// kNever acknowledges before any byte is durable: a crash may lose the
/// whole acknowledged suffix, but recovery still lands on a CONSISTENT
/// committed prefix, and a clean shutdown loses nothing.
TEST(RecoveryDifferentialTest, GroupCommitCrashLosesOnlyTheUnsyncedSuffix) {
  constexpr int kDeltas = 8;
  for (Wal::SyncPolicy policy :
       {Wal::SyncPolicy::kNever, Wal::SyncPolicy::kInterval}) {
    MemEnv env;
    MemEnv crashed;
    {
      Service writer(DurableOptions(&env, policy));
      ASSERT_TRUE(writer.CreateDatabase("db", Database()).ok());
      for (int i = 0; i < kDeltas; ++i) {
        Service::DeltaRequest req;
        req.database = "db";
        req.delta = HistoryDelta(i);
        ASSERT_TRUE(writer.ApplyDelta(req).ok());
      }
      // Crash NOW, while the writer still holds buffered bytes; copy
      // the durable view aside before its destructor can flush.
      env.SimulateCrash();
      CopyTree(env, crashed, "/stores");
    }

    Service reader(DurableOptions(&crashed, policy));
    Result<Service::OpenStoreResponse> opened = reader.OpenStore("db");
    ASSERT_TRUE(opened.ok()) << opened.status();
    ASSERT_LE(opened->epoch, static_cast<uint64_t>(kDeltas));
    Database oracle = OraclePrefix(static_cast<int>(opened->epoch));
    Query q = MustParseQuery("R(x | y), S(y | z)");
    std::vector<SymbolId> fv = {InternSymbol("x")};
    Service::CertainAnswersRequest req;
    req.database = "db";
    req.query = q;
    req.free_vars = fv;
    Result<Service::CertainAnswersResponse> served =
        reader.CertainAnswers(req);
    ASSERT_TRUE(served.ok());
    EXPECT_EQ(served->rows, *testutil::CertainAnswers(oracle, q, fv));

    // Clean shutdown, by contrast, drains the buffer: nothing lost.
    {
      Service writer(DurableOptions(&env, policy));
      ASSERT_EQ(writer.DropDatabase("db").code(),
                StatusCode::kNotFound);  // registry is empty, disk is not
      // (the crashed-on store is still on `env`; remove and rebuild)
      ASSERT_TRUE(env.RemoveDirRecursive("/stores/db").ok());
      ASSERT_TRUE(writer.CreateDatabase("db", Database()).ok());
      for (int i = 0; i < kDeltas; ++i) {
        Service::DeltaRequest dreq;
        dreq.database = "db";
        dreq.delta = HistoryDelta(i);
        ASSERT_TRUE(writer.ApplyDelta(dreq).ok());
      }
    }
    Service clean(DurableOptions(&env, policy));
    Result<Service::OpenStoreResponse> reopened = clean.OpenStore("db");
    ASSERT_TRUE(reopened.ok()) << reopened.status();
    EXPECT_EQ(reopened->epoch, static_cast<uint64_t>(kDeltas));
  }
}

/// Compaction mid-history must be invisible to recovery: the chain
/// continues across snapshot/WAL switches and multiple reopens.
TEST(RecoveryDifferentialTest, EpochChainSurvivesCompactionAndReopens) {
  MemEnv env;
  Service::Options options = DurableOptions(&env, Wal::SyncPolicy::kAlways);
  options.durability.compaction_threshold_bytes = 300;

  uint64_t epoch = 0;
  {
    Service first(options);
    ASSERT_TRUE(first.CreateDatabase("db", Database()).ok());
    for (int i = 0; i < 12; ++i) {
      Service::DeltaRequest req;
      req.database = "db";
      req.delta = HistoryDelta(i);
      Result<Service::DeltaResponse> applied = first.ApplyDelta(req);
      ASSERT_TRUE(applied.ok());
      epoch = applied->epoch;
    }
    Result<Service::StatsResponse> stats = first.Stats({});
    ASSERT_TRUE(stats.ok());
    EXPECT_GE(stats->store.snapshots_written, 1u);
  }
  for (int round = 0; round < 3; ++round) {
    Service next(options);
    Result<Service::OpenStoreResponse> opened = next.OpenStore("db");
    ASSERT_TRUE(opened.ok()) << opened.status();
    EXPECT_EQ(opened->epoch, epoch);
    Service::DeltaRequest req;
    req.database = "db";
    req.delta = HistoryDelta(12 + round);
    Result<Service::DeltaResponse> applied = next.ApplyDelta(req);
    ASSERT_TRUE(applied.ok());
    epoch = applied->epoch;
  }
  EXPECT_EQ(epoch, 15u);
  Database oracle = OraclePrefix(15);
  Service final_svc(options);
  ASSERT_TRUE(final_svc.OpenStore("db").ok());
  Query q = MustParseQuery("R(x | y), S(y | z)");
  std::vector<SymbolId> fv = {InternSymbol("x")};
  Service::CertainAnswersRequest req;
  req.database = "db";
  req.query = q;
  req.free_vars = fv;
  Result<Service::CertainAnswersResponse> served =
      final_svc.CertainAnswers(req);
  ASSERT_TRUE(served.ok());
  EXPECT_EQ(served->rows, *testutil::CertainAnswers(oracle, q, fv));
}

TEST(RecoveryDifferentialTest, OpenStoreErrorTaxonomy) {
  MemEnv env;
  Service service(DurableOptions(&env, Wal::SyncPolicy::kAlways));
  EXPECT_EQ(service.OpenStore("nope").status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(service.CreateDatabase("db", Database()).ok());
  // Live name: FailedPrecondition, not a second recovery.
  EXPECT_EQ(service.OpenStore("db").status().code(),
            StatusCode::kFailedPrecondition);
  // Creating over existing durable state names OpenStore as the way out.
  Service fresh(DurableOptions(&env, Wal::SyncPolicy::kAlways));
  Status clash = fresh.CreateDatabase("db", Database());
  EXPECT_EQ(clash.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(clash.message().find("OpenStore"), std::string::npos);

  Service memory_only;  // durability off
  EXPECT_EQ(memory_only.OpenStore("db").status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(memory_only.ListStores().empty());
}

// ------------------------------------------------- drop/delta race

TEST(DropRaceTest, DefunctSessionRefusesDeltas) {
  Database db;
  ASSERT_TRUE(db.AddFact(Fact::Make("R", {"a", "b"}, 1)).ok());
  Session::Options options;
  options.num_threads = 1;
  Session session(db, options);
  Delta d;
  d.Insert(Fact::Make("R", {"x", "y"}, 1));
  ASSERT_TRUE(session.ApplyDelta(d).ok());
  session.MarkDefunct();
  EXPECT_TRUE(session.defunct());
  Result<uint64_t> rejected = session.ApplyDelta(d);
  EXPECT_EQ(rejected.status().code(), StatusCode::kNotFound);
  // Reads still serve (cursors drain off dropped sessions).
  EXPECT_TRUE(testutil::SessionSolve(session, MustParseQuery("R(x | y)")).ok());
  EXPECT_EQ(session.epoch(), 1u);
}

/// Regression for the drop/delta race: deltas hammering a database
/// while it is dropped and recreated must each either commit or fail
/// NotFound — never crash, never land on a zombie session.
TEST(DropRaceTest, ConcurrentDeltasAndDropNeverLandOnAZombie) {
  Service service;
  ASSERT_TRUE(service.CreateDatabase("db", Database()).ok());

  std::atomic<bool> stop{false};
  std::atomic<int> committed{0};
  std::atomic<int> not_found{0};
  std::atomic<int> unexpected{0};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&, t] {
      int i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        Service::DeltaRequest req;
        req.database = "db";
        req.delta.Insert(Fact::Make(
            "R", {"t" + std::to_string(t) + "-" + std::to_string(i++), "v"},
            1));
        Result<Service::DeltaResponse> out = service.ApplyDelta(req);
        if (out.ok()) {
          committed.fetch_add(1);
        } else if (out.status().code() == StatusCode::kNotFound) {
          not_found.fetch_add(1);
        } else {
          unexpected.fetch_add(1);
        }
      }
    });
  }
  for (int round = 0; round < 25; ++round) {
    ASSERT_TRUE(service.DropDatabase("db").ok());
    ASSERT_TRUE(service.CreateDatabase("db", Database()).ok());
  }
  stop.store(true);
  for (std::thread& t : writers) t.join();
  EXPECT_EQ(unexpected.load(), 0);
  EXPECT_GT(committed.load() + not_found.load(), 0);
  // The registry is in a sane final state.
  EXPECT_TRUE(service.HasDatabase("db"));
  ASSERT_TRUE(service.DropDatabase("db").ok());
  EXPECT_EQ(service.DropDatabase("db").code(), StatusCode::kNotFound);
}

// ------------------------------------------- read-only degradation

/// A WAL failure must degrade the database to read-only WITHOUT letting
/// the failed delta into memory: write-ahead means an unlogged delta is
/// an unapplied delta.
TEST(ReadOnlyDegradationTest, WalFailureDegradesWritesButKeepsServingReads) {
  MemEnv base;
  store::FaultInjectingEnv faulty(&base);
  Service service(DurableOptions(&faulty, Wal::SyncPolicy::kAlways));
  ASSERT_TRUE(service.CreateDatabase("db", Database()).ok());

  Service::DeltaRequest req;
  req.database = "db";
  req.delta = HistoryDelta(0);
  ASSERT_TRUE(service.ApplyDelta(req).ok());

  faulty.plan().fail_sync_at = faulty.counters().syncs + 1;
  Service::DeltaRequest doomed;
  doomed.database = "db";
  doomed.delta = HistoryDelta(1);
  Result<Service::DeltaResponse> failed = service.ApplyDelta(doomed);
  EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);

  // Reads still serve, and they serve the LAST COMMITTED state — the
  // doomed delta never mutated the session.
  Query q = MustParseQuery("R(x | y), S(y | z)");
  std::vector<SymbolId> fv = {InternSymbol("x")};
  Service::CertainAnswersRequest areq;
  areq.database = "db";
  areq.query = q;
  areq.free_vars = fv;
  Result<Service::CertainAnswersResponse> served = service.CertainAnswers(areq);
  ASSERT_TRUE(served.ok()) << served.status();
  EXPECT_EQ(served->rows, *testutil::CertainAnswers(OraclePrefix(1), q, fv));
  EXPECT_EQ(served->epoch, 1u);

  // Every further delta refuses deterministically; the degradation is
  // visible in the service stats.
  EXPECT_EQ(service.ApplyDelta(doomed).status().code(),
            StatusCode::kUnavailable);
  Result<Service::StatsResponse> stats = service.Stats({});
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->store.durable_databases, 1u);
  EXPECT_EQ(stats->store.read_only_databases, 1u);
  EXPECT_EQ(stats->session.deltas_applied, 1u);
}

}  // namespace
}  // namespace cqa
