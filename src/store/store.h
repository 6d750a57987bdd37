#ifndef CQA_STORE_STORE_H_
#define CQA_STORE_STORE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "db/database.h"
#include "store/io.h"
#include "store/snapshot.h"
#include "store/wal.h"
#include "util/status.h"

/// \file
/// DbStore: the durable home of one database. On disk a store is one
/// directory holding exactly one live (snapshot, WAL) pair:
///
///   <dir>/snapshot-<E>   state as of epoch E (checksummed, atomic)
///   <dir>/wal-<E>        deltas with epochs E+1, E+2, ...
///
/// The invariants the compaction and recovery protocols maintain:
///
///   1. A snapshot file, once named `snapshot-<E>`, is complete and
///      durable (it was synced as a temp file and renamed).
///   2. `wal-<E>` is created and synced BEFORE `snapshot-<E>` is
///      renamed, so the newest valid snapshot always has its
///      continuation log on disk (possibly empty).
///   3. Appends go to the WAL before the in-memory database mutates
///      (the session's commit hook), so a crash never acknowledges a
///      delta that recovery cannot replay.
///
/// A WAL I/O failure flips the store read-only: further appends are
/// refused with Unavailable while reads keep serving from memory.

namespace cqa {
namespace store {

class DbStore {
 public:
  struct Options {
    Wal::Options wal;
    /// Compact (snapshot + fresh WAL) once the live WAL exceeds this
    /// many bytes. 0 disables size-triggered compaction.
    uint64_t compaction_threshold_bytes = 4 * 1024 * 1024;
  };

  /// Point-in-time counters, readable concurrently with a writer.
  struct Stats {
    uint64_t appends = 0;
    uint64_t appended_bytes = 0;
    uint64_t snapshots_written = 0;
    uint64_t compaction_failures = 0;
    uint64_t torn_tails_recovered = 0;
    uint64_t snapshots_skipped = 0;
    uint64_t wal_bytes = 0;
    uint64_t epoch = 0;
    bool read_only = false;
  };

  /// Creates `dir` (exclusively — an existing directory is
  /// FailedPrecondition, which doubles as the tenant-exists check),
  /// acquires the tenant lease on `<dir>/LOCK`, and seeds the directory
  /// with a snapshot of `initial` at `epoch` plus an empty WAL. The
  /// database is durable before this returns.
  static Result<std::unique_ptr<DbStore>> Create(Env* env,
                                                 const std::string& dir,
                                                 const Database& initial,
                                                 uint64_t epoch,
                                                 const Options& options);

  struct Recovered {
    std::unique_ptr<DbStore> store;
    Database db;
    uint64_t epoch = 0;
    bool torn_tail = false;
    /// Deltas replayed from the WAL tail.
    uint64_t replayed = 0;
  };

  /// How Open holds the tenant lease. kReadWrite takes the exclusive
  /// writer lease; kReadOnly takes a SHARED lease — any number of
  /// read-only opens coexist on one tenant, while an exclusive writer
  /// (Create or a read-write Open) fails FailedPrecondition against
  /// them and vice versa. A read-only store never mutates the tenant:
  /// it refuses AppendDelta and Sync (Unavailable), reports a torn WAL
  /// tail without truncating it, never compacts, and never removes
  /// obsolete files.
  enum class OpenMode { kReadWrite, kReadOnly };

  /// Recovers a store from `dir`: newest valid snapshot, then WAL tail
  /// replay with strict epoch sequencing. A torn final record is
  /// truncated; mid-log corruption or a broken epoch chain is DataLoss.
  /// Obsolete files (older pairs, stray temps, orphaned WALs from an
  /// interrupted compaction) are removed best-effort.
  ///
  /// Opening FIRST acquires the `<dir>/LOCK` lease: a tenant still
  /// being served by a live process fails FailedPrecondition instead of
  /// letting two writers interleave one WAL. A lease left by a CRASHED
  /// process does not block — flock dies with its holder — which is
  /// what makes the lease strictly better than a create-time sentinel
  /// file.
  static Result<Recovered> Open(Env* env, const std::string& dir,
                                const Options& options);
  static Result<Recovered> Open(Env* env, const std::string& dir,
                                const Options& options, OpenMode mode);

  /// Best-effort flush+sync so a clean shutdown loses nothing even
  /// under SyncPolicy::kNever.
  ~DbStore();

  /// Appends one committed delta (called from the session's commit
  /// hook, before the in-memory mutation). Any I/O failure flips the
  /// store read-only and returns Unavailable; so do all later calls.
  Status AppendDelta(const Delta& delta, uint64_t epoch);

  /// Size-triggered compaction (called from the session's post-commit
  /// hook with the just-mutated database). Failures are counted and
  /// retried after another threshold of WAL growth; they never flip
  /// the store read-only, since the existing pair still recovers.
  void MaybeCompact(const Database& db, uint64_t epoch);

  /// Flush + fsync the live WAL (graceful shutdown / tests).
  Status Sync();

  bool read_only() const;
  Stats stats() const;
  const std::string& dir() const { return dir_; }

 private:
  DbStore(Env* env, std::string dir, const Options& options,
          std::unique_ptr<Wal> wal, uint64_t wal_epoch);

  void RemoveObsoleteFiles(uint64_t live_epoch);

  Env* const env_;
  const std::string dir_;
  const Options options_;
  /// The tenant lease on `<dir>/LOCK` (exclusive for writers, shared
  /// for read-only opens), held from Create()/Open() until destruction.
  std::unique_ptr<FileLock> lock_;

  mutable std::mutex mu_;
  std::unique_ptr<Wal> wal_;
  /// Epoch of the live (snapshot, WAL) pair.
  uint64_t wal_epoch_;
  /// WAL size at the last compaction attempt that failed, 0 when none
  /// has since the last success — backoff so a failing compaction is
  /// not retried on every single delta.
  uint64_t failed_compact_bytes_ = 0;
  bool read_only_ = false;
  Stats stats_;
};

}  // namespace store
}  // namespace cqa

#endif  // CQA_STORE_STORE_H_
