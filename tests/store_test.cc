#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "db/database.h"
#include "serve/service.h"
#include "serve/session.h"
#include "store/io.h"
#include "store/record.h"
#include "store/snapshot.h"
#include "store/store.h"
#include "store/wal.h"
#include "util/status.h"

namespace cqa {
namespace store {
namespace {

Database SmallDb() {
  Database db;
  EXPECT_TRUE(db.AddFact(Fact::Make("R", {"a", "b"}, 1)).ok());
  EXPECT_TRUE(db.AddFact(Fact::Make("R", {"a", "c"}, 1)).ok());
  EXPECT_TRUE(db.AddFact(Fact::Make("S", {"b", "x", "y"}, 2)).ok());
  return db;
}

/// Sorted fact multiset — the db equality the durable layer promises
/// (insertion order is not part of the contract).
std::vector<Fact> SortedFacts(const Database& db) {
  std::vector<Fact> out(db.facts().begin(), db.facts().end());
  std::sort(out.begin(), out.end());
  return out;
}

Delta MakeDelta(int i) {
  Delta d;
  d.Insert(Fact::Make("R", {"k" + std::to_string(i), "v"}, 1));
  if (i % 3 == 1) {
    d.Insert(Fact::Make("R", {"k" + std::to_string(i), "w"}, 1));
  }
  if (i % 4 == 2) {
    d.Remove(Fact::Make("R", {"k" + std::to_string(i - 2), "v"}, 1));
  }
  return d;
}

// -------------------------------------------------------------- records

TEST(RecordTest, Crc32cKnownVectorAndChaining) {
  // The CRC32C check value: crc of the ASCII digits "123456789".
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(Crc32c(""), 0u);
  // Seed chaining computes the same digest piecewise.
  const std::string s = "write-ahead";
  uint32_t whole = Crc32c(s);
  uint32_t part = Crc32c(s.data() + 4, s.size() - 4, Crc32c(s.data(), 4));
  EXPECT_EQ(whole, part);
}

TEST(RecordTest, FramingRoundtrip) {
  std::string file;
  AppendFileHeader(&file, kWalMagic);
  std::vector<std::string> payloads = {"", "a", std::string(1000, 'z'),
                                       std::string("\0\x01\xff binary", 10)};
  for (const std::string& p : payloads) AppendRecord(&file, p);

  size_t offset = 0;
  ASSERT_TRUE(CheckFileHeader(file, kWalMagic, &offset).ok());
  EXPECT_EQ(offset, kFileHeaderSize);
  RecordReader reader(file, offset);
  std::string_view payload;
  for (const std::string& p : payloads) {
    ASSERT_EQ(reader.Next(&payload), ReadStatus::kOk);
    EXPECT_EQ(payload, p);
  }
  EXPECT_EQ(reader.Next(&payload), ReadStatus::kEof);
  EXPECT_EQ(reader.offset(), file.size());
}

TEST(RecordTest, HeaderRejectsWrongMagicAndVersion) {
  std::string file;
  AppendFileHeader(&file, kWalMagic);
  size_t offset = 0;
  EXPECT_FALSE(CheckFileHeader(file, kSnapshotMagic, &offset).ok());
  EXPECT_FALSE(CheckFileHeader("short", kWalMagic, &offset).ok());
  std::string future = file;
  future[6] = static_cast<char>(kFormatVersion + 1);  // little-endian u16
  EXPECT_FALSE(CheckFileHeader(future, kWalMagic, &offset).ok());
}

TEST(RecordTest, TornTailStopsAtLastValidRecord) {
  std::string file;
  AppendFileHeader(&file, kWalMagic);
  AppendRecord(&file, "first");
  size_t valid = file.size();
  AppendRecord(&file, "second-record-payload");

  // Every proper prefix of the final record is a torn tail, whether it
  // cuts the length field, the crc, or the payload.
  for (size_t cut = valid + 1; cut < file.size(); ++cut) {
    RecordReader reader(std::string_view(file.data(), cut), kFileHeaderSize);
    std::string_view payload;
    ASSERT_EQ(reader.Next(&payload), ReadStatus::kOk) << cut;
    EXPECT_EQ(payload, "first");
    EXPECT_EQ(reader.Next(&payload), ReadStatus::kTornTail) << cut;
    // offset() is the truncation point: the start of the torn record.
    EXPECT_EQ(reader.offset(), valid) << cut;
  }
}

TEST(RecordTest, BitFlipIsCorruptNotTorn) {
  std::string file;
  AppendFileHeader(&file, kWalMagic);
  AppendRecord(&file, "first");
  size_t second_start = file.size();
  AppendRecord(&file, "second");
  file[second_start + 8] ^= 1;  // flip a payload bit of record 2

  RecordReader reader(file, kFileHeaderSize);
  std::string_view payload;
  ASSERT_EQ(reader.Next(&payload), ReadStatus::kOk);
  EXPECT_EQ(reader.Next(&payload), ReadStatus::kCorrupt);
  EXPECT_EQ(reader.offset(), second_start);
}

TEST(RecordTest, DeltaPayloadRoundtripSurvivesReinterning) {
  Delta d;
  d.Insert(Fact::Make("R", {"a", "b"}, 1));
  d.Remove(Fact::Make("R", {"a", "c"}, 1));
  d.ReplaceBlock(InternSymbol("S"), {InternSymbol("b"), InternSymbol("x")},
                 {Fact::Make("S", {"b", "x", "z"}, 2)});
  std::string payload = EncodeDeltaPayload(d, 42);

  Result<DecodedDelta> decoded = DecodeDeltaPayload(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->epoch, 42u);

  // Applying the decoded delta must land exactly where the original
  // does — that is the only equality replay needs.
  Database a = SmallDb();
  Database b = SmallDb();
  ASSERT_TRUE(ApplyDeltaToDatabase(d, &a).ok());
  ASSERT_TRUE(ApplyDeltaToDatabase(decoded->delta, &b).ok());
  EXPECT_EQ(SortedFacts(a), SortedFacts(b));

  EXPECT_FALSE(DecodeDeltaPayload("").ok());
  EXPECT_FALSE(DecodeDeltaPayload("\x07garbage").ok());
}

// ------------------------------------------------------------ snapshots

TEST(SnapshotTest, FileNamesSortNumericallyAndParseBack) {
  EXPECT_LT(SnapshotFileName(9), SnapshotFileName(10));
  EXPECT_LT(WalFileName(99), WalFileName(100));
  EXPECT_EQ(ParseEpochFileName(SnapshotFileName(7), "snapshot"),
            std::optional<uint64_t>(7));
  EXPECT_EQ(ParseEpochFileName(WalFileName(7), "wal"),
            std::optional<uint64_t>(7));
  EXPECT_EQ(ParseEpochFileName(SnapshotFileName(7), "wal"), std::nullopt);
  EXPECT_EQ(ParseEpochFileName("snapshot-x", "snapshot"), std::nullopt);
  EXPECT_EQ(ParseEpochFileName("other", "snapshot"), std::nullopt);
}

TEST(SnapshotTest, WriteLoadRoundtrip) {
  MemEnv env;
  ASSERT_TRUE(env.CreateDirs("/db").ok());
  Database db = SmallDb();
  ASSERT_TRUE(WriteSnapshot(&env, "/db", db, 5).ok());
  // The commit protocol leaves no temp file behind.
  Result<std::vector<std::string>> names = env.ListDir("/db");
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(*names, std::vector<std::string>{SnapshotFileName(5)});

  uint64_t epoch = 0;
  Result<Database> loaded =
      LoadSnapshotFile(&env, JoinPath("/db", SnapshotFileName(5)), &epoch);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(epoch, 5u);
  EXPECT_EQ(SortedFacts(*loaded), SortedFacts(db));
}

TEST(SnapshotTest, EmptyDatabaseRoundtrip) {
  MemEnv env;
  ASSERT_TRUE(env.CreateDirs("/db").ok());
  ASSERT_TRUE(WriteSnapshot(&env, "/db", Database(), 0).ok());
  Result<LoadedSnapshot> loaded = LoadNewestSnapshot(&env, "/db");
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->epoch, 0u);
  EXPECT_EQ(loaded->db.size(), 0);
}

TEST(SnapshotTest, NewestValidSnapshotWinsCorruptOnesAreSkipped) {
  MemEnv env;
  ASSERT_TRUE(env.CreateDirs("/db").ok());
  Database old_db = SmallDb();
  Database new_db = SmallDb();
  ASSERT_TRUE(new_db.AddFact(Fact::Make("R", {"q", "q"}, 1)).ok());
  ASSERT_TRUE(WriteSnapshot(&env, "/db", old_db, 3).ok());
  ASSERT_TRUE(WriteSnapshot(&env, "/db", new_db, 8).ok());

  Result<LoadedSnapshot> best = LoadNewestSnapshot(&env, "/db");
  ASSERT_TRUE(best.ok());
  EXPECT_EQ(best->epoch, 8u);
  EXPECT_TRUE(best->skipped.empty());
  EXPECT_EQ(SortedFacts(best->db), SortedFacts(new_db));

  // Corrupt the newest: recovery must fall back to epoch 3 and report
  // the skipped epoch, not take the tenant down.
  std::string path = JoinPath("/db", SnapshotFileName(8));
  Result<std::string> content = env.FileContent(path);
  ASSERT_TRUE(content.ok());
  std::string bad = *content;
  bad[bad.size() / 2] ^= 0x40;
  ASSERT_TRUE(env.SetFileContent(path, bad).ok());

  best = LoadNewestSnapshot(&env, "/db");
  ASSERT_TRUE(best.ok()) << best.status();
  EXPECT_EQ(best->epoch, 3u);
  EXPECT_EQ(best->skipped, std::vector<uint64_t>{8});
  EXPECT_EQ(SortedFacts(best->db), SortedFacts(old_db));

  // A truncated snapshot (missing footer) is equally invalid.
  ASSERT_TRUE(env.SetFileContent(path, bad.substr(0, bad.size() - 7)).ok());
  best = LoadNewestSnapshot(&env, "/db");
  ASSERT_TRUE(best.ok());
  EXPECT_EQ(best->epoch, 3u);
}

TEST(SnapshotTest, NoSnapshotIsNotFoundAllInvalidIsDataLoss) {
  MemEnv env;
  ASSERT_TRUE(env.CreateDirs("/db").ok());
  EXPECT_EQ(LoadNewestSnapshot(&env, "/db").status().code(),
            StatusCode::kNotFound);

  ASSERT_TRUE(WriteSnapshot(&env, "/db", SmallDb(), 1).ok());
  std::string path = JoinPath("/db", SnapshotFileName(1));
  std::string content = *env.FileContent(path);
  content[content.size() - 1] ^= 1;
  ASSERT_TRUE(env.SetFileContent(path, content).ok());
  EXPECT_EQ(LoadNewestSnapshot(&env, "/db").status().code(),
            StatusCode::kDataLoss);
}

// ------------------------------------------------------------------ wal

TEST(WalTest, AppendScanRoundtripAcrossPolicies) {
  for (Wal::SyncPolicy policy :
       {Wal::SyncPolicy::kAlways, Wal::SyncPolicy::kInterval,
        Wal::SyncPolicy::kNever}) {
    MemEnv env;
    Wal::Options options;
    options.policy = policy;
    Result<std::unique_ptr<Wal>> wal = Wal::Create(&env, "/log", options);
    ASSERT_TRUE(wal.ok()) << wal.status();
    std::vector<std::string> payloads = {"one", "two", std::string(500, 'p')};
    for (const std::string& p : payloads) {
      ASSERT_TRUE((*wal)->Append(p).ok());
    }
    // kNever buffers in user space; Sync drains it for the scan.
    ASSERT_TRUE((*wal)->Sync().ok());
    Result<WalScan> scan = ScanWal(&env, "/log");
    ASSERT_TRUE(scan.ok()) << scan.status();
    EXPECT_EQ(scan->payloads, payloads);
    EXPECT_FALSE(scan->torn_tail);
    EXPECT_EQ(scan->valid_bytes, *env.FileSize("/log"));
    EXPECT_EQ(scan->valid_bytes, (*wal)->bytes());
  }
}

TEST(WalTest, UnsyncedNeverPolicyAppendsVanishOnCrash) {
  MemEnv env;
  Wal::Options options;
  options.policy = Wal::SyncPolicy::kNever;
  Result<std::unique_ptr<Wal>> wal = Wal::Create(&env, "/log", options);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE((*wal)->Append("lost-on-crash").ok());
  env.SimulateCrash();
  // The header was synced at Create; the buffered append was not.
  Result<WalScan> scan = ScanWal(&env, "/log");
  ASSERT_TRUE(scan.ok()) << scan.status();
  EXPECT_TRUE(scan->payloads.empty());
  EXPECT_FALSE(scan->torn_tail);
}

TEST(WalTest, TornTailIsToleratedMidLogCorruptionIsDataLoss) {
  MemEnv env;
  Wal::Options options;
  options.policy = Wal::SyncPolicy::kAlways;
  Result<std::unique_ptr<Wal>> wal = Wal::Create(&env, "/log", options);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE((*wal)->Append("alpha").ok());
  uint64_t valid = (*wal)->bytes();
  ASSERT_TRUE((*wal)->Append("beta").ok());
  std::string full = *env.FileContent("/log");

  // A crash mid-append: the final record is cut short.
  ASSERT_TRUE(env.SetFileContent("/log", full.substr(0, full.size() - 3))
                  .ok());
  Result<WalScan> scan = ScanWal(&env, "/log");
  ASSERT_TRUE(scan.ok()) << scan.status();
  EXPECT_EQ(scan->payloads, std::vector<std::string>{"alpha"});
  EXPECT_TRUE(scan->torn_tail);
  EXPECT_EQ(scan->valid_bytes, valid);

  // A flipped bit in a COMPLETE record is not a crash artifact; the
  // scan must refuse rather than drop committed history.
  std::string flipped = full;
  flipped[kFileHeaderSize + 9] ^= 1;
  ASSERT_TRUE(env.SetFileContent("/log", flipped).ok());
  EXPECT_EQ(ScanWal(&env, "/log").status().code(), StatusCode::kDataLoss);
}

// --------------------------------------------------------------- MemEnv

TEST(MemEnvTest, CrashRollsBackToDurablePrefix) {
  MemEnv env;
  Result<std::unique_ptr<WritableFile>> file = env.NewWritableFile("/f");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("durable").ok());
  ASSERT_TRUE((*file)->Sync().ok());
  ASSERT_TRUE((*file)->Append("volatile").ok());
  EXPECT_EQ(*env.FileSize("/f"), 15u);
  env.SimulateCrash();
  EXPECT_EQ(*env.ReadFile("/f"), "durable");
}

TEST(MemEnvTest, CreateDirIsAnExclusiveLock) {
  MemEnv env;
  ASSERT_TRUE(env.CreateDir("/d").ok());
  EXPECT_EQ(env.CreateDir("/d").code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(env.DirExists("/d"));
  ASSERT_TRUE(env.RemoveDirRecursive("/d").ok());
  EXPECT_FALSE(env.DirExists("/d"));
  EXPECT_TRUE(env.CreateDir("/d").ok());
}

// ---------------------------------------------------- fault injection

TEST(FaultInjectionTest, ShortWriteLeavesATornTailRecoveryDropsIt) {
  MemEnv base;
  FaultInjectingEnv env(&base);
  Wal::Options options;
  options.policy = Wal::SyncPolicy::kAlways;
  Result<std::unique_ptr<Wal>> wal = Wal::Create(&env, "/log", options);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE((*wal)->Append("survives").ok());
  uint64_t valid = (*wal)->bytes();

  // The next data append writes only half its frame, then fails.
  env.plan().short_write_at = env.counters().appends + 1;
  EXPECT_FALSE((*wal)->Append("torn-by-the-short-write").ok());
  EXPECT_EQ(env.counters().injected_failures, 1u);

  Result<WalScan> scan = ScanWal(&base, "/log");
  ASSERT_TRUE(scan.ok()) << scan.status();
  EXPECT_EQ(scan->payloads, std::vector<std::string>{"survives"});
  EXPECT_TRUE(scan->torn_tail);
  EXPECT_EQ(scan->valid_bytes, valid);
}

TEST(FaultInjectionTest, FlippedBitsAreCaughtByChecksums) {
  MemEnv base;
  FaultInjectingEnv env(&base);
  Wal::Options options;
  options.policy = Wal::SyncPolicy::kAlways;
  Result<std::unique_ptr<Wal>> wal = Wal::Create(&env, "/log", options);
  ASSERT_TRUE(wal.ok());
  env.plan().flip_bits = true;  // silent media corruption from here on
  // Two records: a flipped bit in the FINAL record's length field is
  // indistinguishable from a torn tail (and tolerated as one), but with
  // a record behind it the damage is structurally complete and the scan
  // must refuse rather than replay garbage.
  ASSERT_TRUE((*wal)->Append("poisoned").ok());
  ASSERT_TRUE((*wal)->Append("also-poisoned").ok());
  EXPECT_EQ(ScanWal(&base, "/log").status().code(), StatusCode::kDataLoss);
}

TEST(FaultInjectionTest, FailedFsyncMakesTheStoreReadOnly) {
  MemEnv base;
  FaultInjectingEnv env(&base);
  DbStore::Options options;
  options.wal.policy = Wal::SyncPolicy::kAlways;
  Result<std::unique_ptr<DbStore>> store =
      DbStore::Create(&env, "/db", SmallDb(), 0, options);
  ASSERT_TRUE(store.ok()) << store.status();

  Delta ok_delta = MakeDelta(0);
  ASSERT_TRUE((*store)->AppendDelta(ok_delta, 1).ok());

  env.plan().fail_sync_at = env.counters().syncs + 1;
  Status degraded = (*store)->AppendDelta(MakeDelta(1), 2);
  EXPECT_EQ(degraded.code(), StatusCode::kUnavailable);
  EXPECT_TRUE((*store)->read_only());
  EXPECT_TRUE((*store)->stats().read_only);

  // Once read-only, everything write-shaped refuses — deterministically.
  EXPECT_EQ((*store)->AppendDelta(MakeDelta(2), 3).code(),
            StatusCode::kUnavailable);
  EXPECT_EQ((*store)->Sync().code(), StatusCode::kUnavailable);

  // The durable prefix (delta 1) still recovers on the pristine env —
  // after the degraded process exits and its tenant lease dies with it.
  store->reset();
  Result<DbStore::Recovered> reopened = DbStore::Open(&base, "/db", options);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_GE(reopened->epoch, 1u);
}

TEST(FaultInjectionTest, EnospcDegradesButDurablePrefixRecovers) {
  MemEnv base;
  FaultInjectingEnv env(&base);
  DbStore::Options options;
  options.wal.policy = Wal::SyncPolicy::kAlways;
  Result<std::unique_ptr<DbStore>> store =
      DbStore::Create(&env, "/db", SmallDb(), 0, options);
  ASSERT_TRUE(store.ok()) << store.status();

  env.plan().enospc_after_bytes = env.counters().appended_bytes + 80;
  uint64_t committed = 0;
  Status last = Status::OK();
  for (int i = 0; i < 64 && last.ok(); ++i) {
    last = (*store)->AppendDelta(MakeDelta(i), committed + 1);
    if (last.ok()) ++committed;
  }
  ASSERT_FALSE(last.ok());  // the disk filled up
  EXPECT_EQ(last.code(), StatusCode::kUnavailable);
  EXPECT_TRUE((*store)->read_only());

  store->reset();  // process exit releases the tenant lease
  Result<DbStore::Recovered> reopened = DbStore::Open(&base, "/db", options);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(reopened->epoch, committed);
  EXPECT_TRUE(reopened->torn_tail);  // the ENOSPC append was cut short
}

// -------------------------------------------------------------- DbStore

TEST(DbStoreTest, CreateIsExclusiveAndCleansUpOnFailure) {
  MemEnv env;
  DbStore::Options options;
  Result<std::unique_ptr<DbStore>> store =
      DbStore::Create(&env, "/db", SmallDb(), 0, options);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(DbStore::Create(&env, "/db", SmallDb(), 0, options)
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
}

TEST(DbStoreTest, CompactionSwitchesTheLivePairAndDropsObsoleteFiles) {
  MemEnv env;
  DbStore::Options options;
  options.wal.policy = Wal::SyncPolicy::kAlways;
  options.compaction_threshold_bytes = 512;
  Result<std::unique_ptr<DbStore>> created =
      DbStore::Create(&env, "/db", Database(), 0, options);
  ASSERT_TRUE(created.ok());
  DbStore& store = **created;

  Database db;
  uint64_t epoch = 0;
  bool compacted = false;
  for (int i = 0; i < 200 && !compacted; ++i) {
    Delta d;
    d.Insert(Fact::Make("R", {"k" + std::to_string(i), "v"}, 1));
    ASSERT_TRUE(ApplyDeltaToDatabase(d, &db).ok());
    ASSERT_TRUE(store.AppendDelta(d, ++epoch).ok());
    store.MaybeCompact(db, epoch);
    compacted = store.stats().snapshots_written > 0;
  }
  ASSERT_TRUE(compacted);

  // Exactly one live (snapshot, wal) pair remains (plus the tenant
  // lease file), at the compaction epoch; the old pair and any temps
  // are gone.
  Result<std::vector<std::string>> names = env.ListDir("/db");
  ASSERT_TRUE(names.ok());
  std::vector<std::string> expected = {"LOCK", SnapshotFileName(epoch),
                                       WalFileName(epoch)};
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(*names, expected);

  // Deltas after the compaction continue the chain and recover.
  Delta d;
  d.Insert(Fact::Make("R", {"post-compact", "v"}, 1));
  ASSERT_TRUE(ApplyDeltaToDatabase(d, &db).ok());
  ASSERT_TRUE(store.AppendDelta(d, ++epoch).ok());
  ASSERT_TRUE(store.Sync().ok());

  created->reset();  // process exit releases the tenant lease
  Result<DbStore::Recovered> reopened = DbStore::Open(&env, "/db", options);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(reopened->epoch, epoch);
  EXPECT_EQ(reopened->replayed, 1u);
  EXPECT_EQ(SortedFacts(reopened->db), SortedFacts(db));
}

/// A store reopened over a WAL already past the threshold compacts at
/// its first chance: a recovered WAL is no failed attempt to back off
/// from.
TEST(DbStoreTest, ReopenedStoreCompactsAWalPastTheThreshold) {
  MemEnv env;
  DbStore::Options off;
  off.wal.policy = Wal::SyncPolicy::kAlways;
  off.compaction_threshold_bytes = 0;
  Result<std::unique_ptr<DbStore>> created =
      DbStore::Create(&env, "/db", Database(), 0, off);
  ASSERT_TRUE(created.ok()) << created.status();
  Database db;
  uint64_t epoch = 0;
  for (int i = 0; i < 40; ++i) {
    Delta d = MakeDelta(i);
    ASSERT_TRUE(ApplyDeltaToDatabase(d, &db).ok());
    ASSERT_TRUE((*created)->AppendDelta(d, ++epoch).ok());
  }
  uint64_t wal_bytes = (*created)->stats().wal_bytes;
  created->reset();  // process exit releases the tenant lease

  DbStore::Options on = off;
  on.compaction_threshold_bytes = wal_bytes / 2;
  ASSERT_GT(on.compaction_threshold_bytes, 0u);
  Result<DbStore::Recovered> reopened = DbStore::Open(&env, "/db", on);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  ASSERT_EQ(reopened->epoch, epoch);
  DbStore& store = *reopened->store;
  EXPECT_GE(store.stats().wal_bytes, on.compaction_threshold_bytes);
  store.MaybeCompact(reopened->db, reopened->epoch);
  DbStore::Stats stats = store.stats();
  EXPECT_EQ(stats.snapshots_written, 1u);
  EXPECT_EQ(stats.compaction_failures, 0u);
  EXPECT_LT(stats.wal_bytes, on.compaction_threshold_bytes);
}

/// A store whose WAL holds no delta has nothing to fold, however low
/// the threshold: compacting would only replace the live pair with
/// itself.
TEST(DbStoreTest, CompactionAtTheLiveEpochFoldsNothing) {
  MemEnv env;
  DbStore::Options options;
  options.compaction_threshold_bytes = 1;
  Result<std::unique_ptr<DbStore>> created =
      DbStore::Create(&env, "/db", SmallDb(), 0, options);
  ASSERT_TRUE(created.ok()) << created.status();
  ASSERT_GE((*created)->stats().wal_bytes, 1u);
  (*created)->MaybeCompact(SmallDb(), 0);
  EXPECT_EQ((*created)->stats().snapshots_written, 0u);
  Result<std::vector<std::string>> names = env.ListDir("/db");
  ASSERT_TRUE(names.ok());
  std::vector<std::string> expected = {"LOCK", SnapshotFileName(0),
                                       WalFileName(0)};
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(*names, expected);
}

// ---------------------------------------------------------- tenant lease

TEST(EnvLockTest, PosixFlockLeaseIsExclusivePerPath) {
  Env* env = Env::Default();
  std::string path = testing::TempDir() + "/cqa_lease_test.LOCK";
  Result<std::unique_ptr<FileLock>> lease = env->LockFile(path);
  ASSERT_TRUE(lease.ok()) << lease.status();
  // A second holder — another Service in this process or (via flock
  // semantics) another process entirely — is refused while we live.
  EXPECT_EQ(env->LockFile(path).status().code(),
            StatusCode::kFailedPrecondition);
  lease->reset();
  // Released leases (process exit, crash) stop blocking.
  Result<std::unique_ptr<FileLock>> again = env->LockFile(path);
  EXPECT_TRUE(again.ok()) << again.status();
  again->reset();
  Status cleanup = env->RemoveFile(path);
  (void)cleanup;
}

TEST(DbStoreTest, OpenRefusesATenantAnotherHolderIsServing) {
  MemEnv env;
  DbStore::Options options;
  options.wal.policy = Wal::SyncPolicy::kAlways;
  Result<std::unique_ptr<DbStore>> created =
      DbStore::Create(&env, "/db", SmallDb(), 0, options);
  ASSERT_TRUE(created.ok()) << created.status();

  // The tenant is LIVE: a second open must refuse up front — before
  // reading (or truncating) a WAL the holder is still appending to.
  Result<DbStore::Recovered> contended = DbStore::Open(&env, "/db", options);
  EXPECT_EQ(contended.status().code(), StatusCode::kFailedPrecondition);

  // The holder exiting (or crashing: flock dies with its process)
  // releases the lease, and the same open succeeds.
  created->reset();
  Result<DbStore::Recovered> reopened = DbStore::Open(&env, "/db", options);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(SortedFacts(reopened->db), SortedFacts(SmallDb()));

  // ... and the reopened store holds the lease in turn.
  EXPECT_EQ(DbStore::Open(&env, "/db", options).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(EnvLockTest, PosixSharedLeasesStackAndExcludeWriters) {
  Env* env = Env::Default();
  std::string path = testing::TempDir() + "/cqa_shared_lease_test.LOCK";
  // Readers stack...
  Result<std::unique_ptr<FileLock>> r1 =
      env->LockFile(path, LockMode::kShared);
  ASSERT_TRUE(r1.ok()) << r1.status();
  Result<std::unique_ptr<FileLock>> r2 =
      env->LockFile(path, LockMode::kShared);
  ASSERT_TRUE(r2.ok()) << r2.status();
  // ...an exclusive writer fails against them...
  EXPECT_EQ(env->LockFile(path, LockMode::kExclusive).status().code(),
            StatusCode::kFailedPrecondition);
  r1->reset();
  EXPECT_EQ(env->LockFile(path, LockMode::kExclusive).status().code(),
            StatusCode::kFailedPrecondition);
  r2->reset();
  // ...until the LAST reader releases.
  Result<std::unique_ptr<FileLock>> writer =
      env->LockFile(path, LockMode::kExclusive);
  ASSERT_TRUE(writer.ok()) << writer.status();
  // And a reader fails against a live writer (the other direction).
  EXPECT_EQ(env->LockFile(path, LockMode::kShared).status().code(),
            StatusCode::kFailedPrecondition);
  writer->reset();
  Status cleanup = env->RemoveFile(path);
  (void)cleanup;
}

TEST(EnvLockTest, MemEnvSharedLeasesMatchPosixSemantics) {
  MemEnv env;
  ASSERT_TRUE(env.CreateDirs("/d").ok());
  Result<std::unique_ptr<FileLock>> r1 =
      env.LockFile("/d/t.LOCK", LockMode::kShared);
  ASSERT_TRUE(r1.ok()) << r1.status();
  Result<std::unique_ptr<FileLock>> r2 =
      env.LockFile("/d/t.LOCK", LockMode::kShared);
  ASSERT_TRUE(r2.ok()) << r2.status();
  EXPECT_EQ(env.LockFile("/d/t.LOCK", LockMode::kExclusive).status().code(),
            StatusCode::kFailedPrecondition);
  r1->reset();
  r2->reset();
  Result<std::unique_ptr<FileLock>> writer =
      env.LockFile("/d/t.LOCK", LockMode::kExclusive);
  ASSERT_TRUE(writer.ok()) << writer.status();
  EXPECT_EQ(env.LockFile("/d/t.LOCK", LockMode::kShared).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(DbStoreTest, ReadOnlyOpensCoexistAndRefuseAppends) {
  MemEnv env;
  DbStore::Options options;
  options.wal.policy = Wal::SyncPolicy::kAlways;
  Result<std::unique_ptr<DbStore>> created =
      DbStore::Create(&env, "/db", SmallDb(), 0, options);
  ASSERT_TRUE(created.ok()) << created.status();
  ASSERT_TRUE((*created)->AppendDelta(MakeDelta(1), 1).ok());
  // A reader must refuse while the WRITER is live...
  EXPECT_EQ(DbStore::Open(&env, "/db", options, DbStore::OpenMode::kReadOnly)
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
  created->reset();

  // ...then any number of readers coexist on the released tenant.
  Result<DbStore::Recovered> reader1 =
      DbStore::Open(&env, "/db", options, DbStore::OpenMode::kReadOnly);
  ASSERT_TRUE(reader1.ok()) << reader1.status();
  Result<DbStore::Recovered> reader2 =
      DbStore::Open(&env, "/db", options, DbStore::OpenMode::kReadOnly);
  ASSERT_TRUE(reader2.ok()) << reader2.status();

  // Both recovered the same state, WAL tail included.
  EXPECT_EQ(reader1->epoch, 1u);
  EXPECT_EQ(SortedFacts(reader1->db), SortedFacts(reader2->db));
  EXPECT_TRUE(reader1->store->read_only());
  EXPECT_TRUE(reader1->store->stats().read_only);

  // A read-only store refuses appends; the tenant stays untouched.
  EXPECT_EQ(reader1->store->AppendDelta(MakeDelta(2), 2).code(),
            StatusCode::kUnavailable);

  // An exclusive writer fails against the readers — both of them.
  EXPECT_EQ(DbStore::Open(&env, "/db", options).status().code(),
            StatusCode::kFailedPrecondition);
  reader1->store.reset();
  EXPECT_EQ(DbStore::Open(&env, "/db", options).status().code(),
            StatusCode::kFailedPrecondition);
  reader2->store.reset();

  // Last reader gone: the writer takes over and can append again.
  Result<DbStore::Recovered> writer = DbStore::Open(&env, "/db", options);
  ASSERT_TRUE(writer.ok()) << writer.status();
  EXPECT_TRUE(writer->store->AppendDelta(MakeDelta(2), 2).ok());
}

TEST(ServiceStoreTest, SecondServiceCannotOpenALiveTenant) {
  MemEnv env;
  Service::Options options;
  options.num_threads = 1;
  options.durability.dir = "/tenants";
  options.durability.env = &env;
  options.durability.wal.policy = Wal::SyncPolicy::kAlways;

  auto first = std::make_unique<Service>(options);
  ASSERT_TRUE(first->CreateDatabase("shared", SmallDb()).ok());

  // A rival service over the same filesystem must not be able to
  // double-serve the tenant.
  Service second(options);
  EXPECT_EQ(second.OpenStore("shared").status().code(),
            StatusCode::kFailedPrecondition);

  // The first service shutting down releases the lease; now the
  // takeover succeeds and recovers the data.
  first.reset();
  Result<Service::OpenStoreResponse> opened = second.OpenStore("shared");
  ASSERT_TRUE(opened.ok()) << opened.status();
  EXPECT_TRUE(second.HasDatabase("shared"));
}

TEST(DbStoreTest, EpochChainGapIsDataLoss) {
  MemEnv env;
  DbStore::Options options;
  options.wal.policy = Wal::SyncPolicy::kAlways;
  {
    Result<std::unique_ptr<DbStore>> store =
        DbStore::Create(&env, "/db", Database(), 0, options);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->AppendDelta(MakeDelta(0), 1).ok());
    // Epoch 2 never written: the hole must be caught on recovery.
    ASSERT_TRUE((*store)->AppendDelta(MakeDelta(1), 3).ok());
  }
  Result<DbStore::Recovered> reopened = DbStore::Open(&env, "/db", options);
  EXPECT_EQ(reopened.status().code(), StatusCode::kDataLoss);
}

// -------------------------------------------- Service name escaping

TEST(ServiceStoreTest, HostileDatabaseNamesRoundtripThroughListStores) {
  MemEnv env;
  Service::Options options;
  options.durability.dir = "/stores";
  options.durability.env = &env;
  Service service(options);

  std::vector<std::string> names = {"plain",     "has/slash", "has%percent",
                                    "..dotdot",  "sp ace",    "uni\xc3\xa9"};
  for (const std::string& name : names) {
    ASSERT_TRUE(service.CreateDatabase(name, Database()).ok()) << name;
  }
  std::vector<std::string> sorted = names;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(service.ListStores(), sorted);
  EXPECT_EQ(service.ListDatabases(), sorted);

  // Distinct hostile names must not collide on disk: dropping one
  // leaves the others intact.
  ASSERT_TRUE(service.DropDatabase("has/slash").ok());
  sorted.erase(std::find(sorted.begin(), sorted.end(), "has/slash"));
  EXPECT_EQ(service.ListStores(), sorted);
}

}  // namespace
}  // namespace store
}  // namespace cqa
