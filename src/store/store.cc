#include "store/store.h"

#include <utility>

#include "serve/session.h"
#include "store/record.h"

namespace cqa {
namespace store {

namespace {

/// The tenant lease file. Never part of the (snapshot, WAL) pair:
/// recovery's file scan and RemoveObsoleteFiles both leave it alone.
constexpr char kLockFileName[] = "LOCK";

}  // namespace

DbStore::DbStore(Env* env, std::string dir, const Options& options,
                 std::unique_ptr<Wal> wal, uint64_t wal_epoch)
    : env_(env),
      dir_(std::move(dir)),
      options_(options),
      wal_(std::move(wal)),
      wal_epoch_(wal_epoch) {
  stats_.epoch = wal_epoch;
  stats_.wal_bytes = wal_ != nullptr ? wal_->bytes() : 0;
}

DbStore::~DbStore() {
  // Clean shutdown drains the group-commit buffer so even
  // SyncPolicy::kNever loses data only on a crash, not on exit.
  std::lock_guard<std::mutex> lock(mu_);
  if (wal_ != nullptr) {
    Status st = wal_->Sync();
    (void)st;
  }
}

Result<std::unique_ptr<DbStore>> DbStore::Create(Env* env,
                                                 const std::string& dir,
                                                 const Database& initial,
                                                 uint64_t epoch,
                                                 const Options& options) {
  // The exclusive mkdir doubles as the "does this tenant already have
  // durable state" check.
  CQA_RETURN_NOT_OK(env->CreateDir(dir));
  Result<std::unique_ptr<FileLock>> lock =
      env->LockFile(JoinPath(dir, kLockFileName));
  if (!lock.ok()) {
    Status cleanup = env->RemoveDirRecursive(dir);
    (void)cleanup;
    return lock.status();
  }
  auto seed = [&]() -> Result<std::unique_ptr<Wal>> {
    // WAL before snapshot rename (invariant 2): the moment
    // `snapshot-<E>` exists, `wal-<E>` is already durable.
    Result<std::unique_ptr<Wal>> wal =
        Wal::Create(env, JoinPath(dir, WalFileName(epoch)), options.wal);
    if (!wal.ok()) return wal.status();
    CQA_RETURN_NOT_OK(WriteSnapshot(env, dir, initial, epoch));
    return wal;
  };
  Result<std::unique_ptr<Wal>> wal = seed();
  if (!wal.ok()) {
    // Release the lease BEFORE removing the directory so the lock file
    // does not linger (MemEnv keeps a leased path alive).
    lock->reset();
    Status cleanup = env->RemoveDirRecursive(dir);
    (void)cleanup;  // best effort: leave no half-created tenant behind
    return wal.status();
  }
  std::unique_ptr<DbStore> store(
      new DbStore(env, dir, options, std::move(*wal), epoch));
  store->lock_ = std::move(*lock);
  return store;
}

Result<DbStore::Recovered> DbStore::Open(Env* env, const std::string& dir,
                                         const Options& options) {
  return Open(env, dir, options, OpenMode::kReadWrite);
}

Result<DbStore::Recovered> DbStore::Open(Env* env, const std::string& dir,
                                         const Options& options,
                                         OpenMode mode) {
  const bool read_only = mode == OpenMode::kReadOnly;
  // The lease comes FIRST: refusing a live tenant must precede reading
  // (let alone truncating) a WAL another process is appending to.
  // Readers stack on a shared lease; a writer lease excludes them all.
  Result<std::unique_ptr<FileLock>> lock = env->LockFile(
      JoinPath(dir, kLockFileName),
      read_only ? LockMode::kShared : LockMode::kExclusive);
  if (!lock.ok()) return lock.status();

  Result<LoadedSnapshot> snap = LoadNewestSnapshot(env, dir);
  if (!snap.ok()) return snap.status();

  Recovered out;
  out.db = std::move(snap->db);
  uint64_t base_epoch = snap->epoch;

  std::string wal_path = JoinPath(dir, WalFileName(base_epoch));
  uint64_t wal_bytes = 0;
  if (env->FileExists(wal_path)) {
    Result<WalScan> scan = ScanWal(env, wal_path);
    if (!scan.ok()) return scan.status();
    uint64_t expected = base_epoch;
    for (const std::string& payload : scan->payloads) {
      Result<DecodedDelta> decoded = DecodeDeltaPayload(payload);
      if (!decoded.ok()) return decoded.status();
      ++expected;
      if (decoded->epoch != expected) {
        return Status::DataLoss(
            "WAL '" + wal_path + "' epoch chain broken: expected " +
            std::to_string(expected) + ", found " +
            std::to_string(decoded->epoch));
      }
      Status applied = ApplyDeltaToDatabase(decoded->delta, &out.db);
      if (!applied.ok()) {
        return Status::DataLoss("WAL '" + wal_path +
                                "' holds a delta that no longer applies: " +
                                applied.message());
      }
      ++out.replayed;
    }
    if (scan->torn_tail) {
      // A crash mid-append left an incomplete final record. Everything
      // before it is intact; cut the tail so the reopened log stays
      // parseable. A READER must not mutate the tenant: it reports the
      // torn tail and leaves the truncation to the next writer open.
      if (!read_only) {
        CQA_RETURN_NOT_OK(env->TruncateFile(wal_path, scan->valid_bytes));
      }
      out.torn_tail = true;
    }
    wal_bytes = scan->valid_bytes;
  }

  std::unique_ptr<Wal> wal;
  if (read_only) {
    // No live WAL handle at all: a read-only store never appends, and
    // opening one could truncate-on-recover under a racing reader.
  } else if (wal_bytes == 0 && !env->FileExists(wal_path)) {
    // Invariant 2 makes this near-impossible, but an empty fresh log is
    // strictly better than refusing to serve a valid snapshot.
    Result<std::unique_ptr<Wal>> created =
        Wal::Create(env, wal_path, options.wal);
    if (!created.ok()) return created.status();
    wal = std::move(*created);
  } else {
    Result<std::unique_ptr<Wal>> opened =
        Wal::OpenExisting(env, wal_path, options.wal, wal_bytes);
    if (!opened.ok()) return opened.status();
    wal = std::move(*opened);
  }

  out.epoch = base_epoch + out.replayed;
  out.store = std::unique_ptr<DbStore>(
      new DbStore(env, dir, options, std::move(wal), base_epoch));
  out.store->lock_ = std::move(*lock);
  {
    std::lock_guard<std::mutex> lock(out.store->mu_);
    out.store->stats_.torn_tails_recovered = out.torn_tail ? 1 : 0;
    out.store->stats_.snapshots_skipped = snap->skipped.size();
    out.store->stats_.epoch = out.epoch;
    out.store->stats_.wal_bytes = wal_bytes;
    if (read_only) {
      out.store->read_only_ = true;
      out.store->stats_.read_only = true;
    }
  }
  // Obsolete-file removal mutates the directory; readers skip it.
  if (!read_only) out.store->RemoveObsoleteFiles(base_epoch);
  return out;
}

Status DbStore::AppendDelta(const Delta& delta, uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  if (read_only_) {
    return Status::Unavailable("database is read-only (read-only open or WAL failure)");
  }
  std::string payload = EncodeDeltaPayload(delta, epoch);
  Status st = wal_->Append(payload);
  if (!st.ok()) {
    // The log may now end in a torn record; stop appending so committed
    // history stays a clean prefix. Reads keep serving from memory.
    read_only_ = true;
    stats_.read_only = true;
    return Status::Unavailable("WAL append failed, database is now read-only: " +
                               st.message());
  }
  ++stats_.appends;
  stats_.appended_bytes += payload.size();
  stats_.epoch = epoch;
  stats_.wal_bytes = wal_->bytes();
  return Status::OK();
}

void DbStore::MaybeCompact(const Database& db, uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  if (read_only_ || options_.compaction_threshold_bytes == 0) return;
  if (wal_->bytes() < options_.compaction_threshold_bytes) return;
  // The live WAL holds no delta past its own epoch: nothing to fold, and
  // the new pair's WAL would be the live file itself.
  if (epoch == wal_epoch_) return;
  // Back off after a failed attempt: retry only once the WAL has grown
  // by another threshold, not on every subsequent delta.
  if (failed_compact_bytes_ > 0 &&
      wal_->bytes() <
          failed_compact_bytes_ + options_.compaction_threshold_bytes) {
    return;
  }

  std::string new_wal_path = JoinPath(dir_, WalFileName(epoch));
  if (env_->FileExists(new_wal_path)) {
    // Leftover from an interrupted attempt in a previous process life.
    Status st = env_->RemoveFile(new_wal_path);
    (void)st;
  }
  Result<std::unique_ptr<Wal>> new_wal =
      Wal::Create(env_, new_wal_path, options_.wal);
  if (!new_wal.ok()) {
    ++stats_.compaction_failures;
    failed_compact_bytes_ = wal_->bytes();
    return;
  }
  // The rename inside WriteSnapshot is the commit point: before it the
  // old pair recovers (the new WAL is an orphan recovery deletes);
  // after it the new pair does.
  Status st = WriteSnapshot(env_, dir_, db, epoch);
  if (!st.ok()) {
    ++stats_.compaction_failures;
    failed_compact_bytes_ = wal_->bytes();
    Status cleanup = env_->RemoveFile(new_wal_path);
    (void)cleanup;
    return;
  }
  uint64_t old_epoch = wal_epoch_;
  wal_ = std::move(*new_wal);
  wal_epoch_ = epoch;
  failed_compact_bytes_ = 0;
  ++stats_.snapshots_written;
  stats_.wal_bytes = wal_->bytes();
  RemoveObsoleteFiles(epoch);
  (void)old_epoch;
}

Status DbStore::Sync() {
  std::lock_guard<std::mutex> lock(mu_);
  if (read_only_) {
    return Status::Unavailable("database is read-only (read-only open or WAL failure)");
  }
  return wal_->Sync();
}

bool DbStore::read_only() const {
  std::lock_guard<std::mutex> lock(mu_);
  return read_only_;
}

DbStore::Stats DbStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void DbStore::RemoveObsoleteFiles(uint64_t live_epoch) {
  Result<std::vector<std::string>> names = env_->ListDir(dir_);
  if (!names.ok()) return;
  for (const std::string& name : *names) {
    bool obsolete = false;
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0) {
      obsolete = true;
    } else if (std::optional<uint64_t> e =
                   ParseEpochFileName(name, "snapshot")) {
      obsolete = *e != live_epoch;
    } else if (std::optional<uint64_t> e = ParseEpochFileName(name, "wal")) {
      obsolete = *e != live_epoch;
    }
    if (obsolete) {
      Status st = env_->RemoveFile(JoinPath(dir_, name));
      (void)st;
    }
  }
}

}  // namespace store
}  // namespace cqa
