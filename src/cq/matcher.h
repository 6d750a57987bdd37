#ifndef CQA_CQ_MATCHER_H_
#define CQA_CQ_MATCHER_H_

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "cq/query.h"
#include "cq/valuation.h"
#include "db/database.h"
#include "db/repairs.h"
#include "util/deadline.h"
#include "util/status.h"

/// \file
/// Conjunctive query evaluation: db ⊨ q iff some valuation θ over vars(q)
/// embeds every atom of q into db (Section 3). Implemented as a
/// backtracking join over `FactIndex`, a hash-indexed per-relation view of
/// a fact set.
///
/// ## Index structures
///
/// A `FactIndex` names facts by int id and answers every probe with a
/// `FactRun`, a contiguous run of ids, without allocating:
///
///   * `Facts(R)`: every fact of R;
///   * `FactsAt(R, p, v)`: the facts of R with values()[p] == v;
///   * `FactsWithKeyPrefix(R, v_1..v_k)`: the facts of R whose first k
///     values are v_1..v_k. With k = the key arity of R the run is one
///     primary-key block of the database;
///   * `Contains(fact)`: membership by value.
///
/// An index over a `Database` (the serving session's, one per tenant,
/// and every `EvalContext`'s) uses the database's fact ids and reads
/// what the database already stores: `Facts` reads `FactsOf`, a
/// full-key probe (and position 0 of a key-arity-1 relation) reads the
/// block table, and `Contains` reads the fact table. Every other
/// (relation, position) and (relation, prefix length) gets a flat
/// open-addressing table of fact-id runs, built on its first probe, once,
/// behind its own once-flag, so threads may share the index and probe it
/// concurrently. A table slot is 16 bytes, a key with one fact keeps its
/// id in the slot, and the other runs lie end to end in one id array, so
/// a table costs about 16 bytes a key plus 4 a fact in a run of two or
/// more. The database's owner reports each change
/// (`Inserted`/`Erasing`) and the built tables are patched in place.
///
/// An owning index (`FactIndex()`, `FactIndex(repair)`) holds facts by
/// address, added and removed one at a time (`Add`/`Remove`/`SwapFact`),
/// with ids of its own; its relation lists and block tables are tables
/// like the rest. `SwapFact` is the repair hot path: enumerating repairs
/// changes one block's choice at a time, so solvers mutate one shared
/// index per block-choice change instead of rebuilding an index per
/// repair (see RepairEnumerator::ForEachIndexed).
///
/// ## Join evaluation and atom ordering
///
/// The indexed matcher picks, at every search node, the *not-yet-matched
/// atom with the fewest candidate facts under the current partial
/// valuation* (dynamic selectivity ordering), where the candidate set of
/// an atom is the smallest of: its key-prefix run (when every key
/// position is a constant or bound variable), its single-position runs
/// over all bound positions, and the whole relation. A branch dies as
/// soon as any remaining atom has zero candidates. Once the first atom
/// binds a join variable, subsequent atoms are matched by hash lookup on
/// that binding rather than by scanning their relation.
///
/// The pre-index matcher is retained as `MatcherMode::kNaive` (static
/// atom order, full relation scans) and serves as the differential-
/// testing oracle: a test names it at its ForEachEmbedding call site.
/// Every other entry point runs the indexed matcher.

namespace cqa {

/// Candidate selection policy of ForEachEmbedding. kIndexed is the
/// production path; kNaive is the retained scan-based oracle.
enum class MatcherMode { kIndexed, kNaive };

/// A probe's answer: a contiguous run of fact ids (`FactIndex::fact`
/// resolves one). Valid until the index, or the database under it, next
/// changes.
class FactRun {
 public:
  FactRun() = default;
  FactRun(const int* data, size_t size) : data_(data), size_(size) {}
  const int* begin() const { return data_; }
  const int* end() const { return data_ + size_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  int operator[](size_t i) const { return data_[i]; }

 private:
  const int* data_ = nullptr;
  size_t size_ = 0;
};

/// A hash-indexed per-relation view over a set of facts; see the file
/// comment. Probes are const and thread-safe against each other; the
/// mutators need the index (and, over a database, the database) to
/// themselves.
class FactIndex {
 public:
  /// An empty owning index: facts enter by Add.
  FactIndex();
  /// An index over `db`, which must outlive it. Ids are db's fact ids.
  /// A change to db must be reported through Inserted/Erasing.
  explicit FactIndex(const Database& db);
  /// An owning index over the repair's facts.
  explicit FactIndex(const Repair& repair);
  ~FactIndex();
  FactIndex(const FactIndex&) = delete;
  FactIndex& operator=(const FactIndex&) = delete;

  /// Inserts `fact`, whose address must stay valid until removed. Ids
  /// stay dense: a new fact takes the next one. An index over a database
  /// that Add, Remove or SwapFact change becomes an owning index over
  /// the database's facts first, with the same ids (the database itself
  /// is left alone).
  void Add(const Fact* fact);

  /// Removes an address previously passed to Add, or a fact of the
  /// database the index was built over (no-op for strangers). The last
  /// id moves into the freed one.
  void Remove(const Fact* fact);

  /// Remove(old_fact) + Add(new_fact), with new_fact taking old_fact's
  /// id: the per-block repair transition.
  void SwapFact(const Fact* old_fact, const Fact* new_fact);

  /// Index over a database: the database just stored facts()[id].
  void Inserted(int id);

  /// Index over a database: the database is about to remove facts()[id],
  /// which moves its last fact into `id` (Database::RemoveFact).
  void Erasing(int id);

  /// The fact with this id.
  const Fact& fact(int id) const {
    return db_ != nullptr ? db_->facts()[id] : *ptrs_[id];
  }

  /// All facts of `relation`.
  FactRun Facts(SymbolId relation) const;

  /// Facts of `relation` with values()[position] == value. `position`
  /// must be >= 0; facts of arity <= position are never included.
  FactRun FactsAt(SymbolId relation, int position, SymbolId value) const;

  /// Facts of `relation` whose first `len` values equal prefix[0..len).
  /// With len == key arity the run is a block.
  FactRun FactsWithKeyPrefix(SymbolId relation, const SymbolId* prefix,
                             size_t len) const;
  FactRun FactsWithKeyPrefix(SymbolId relation,
                             const std::vector<SymbolId>& prefix) const {
    return FactsWithKeyPrefix(relation, prefix.data(), prefix.size());
  }

  /// Membership by value.
  bool Contains(const Fact& fact) const {
    return Contains(fact.relation(), fact.values().data(), fact.arity(),
                    fact.key_arity());
  }
  /// Membership of the fact (relation, values[0..arity)) with key arity
  /// `key_arity`, without building a `Fact`.
  bool Contains(SymbolId relation, const SymbolId* values, size_t arity,
                int key_arity) const;

  size_t total() const;

  /// Bytes of the flat tables built so far: their slot arrays and id
  /// runs (vector capacities). Readable while other threads probe.
  size_t bytes() const { return bytes_.load(std::memory_order_relaxed); }

 private:
  class RunTable;
  struct Table;
  struct Relation;

  Relation* FindRelation(SymbolId relation) const;
  /// The relation's entry, created when new, with tables for `arity`
  /// positions at least.
  Relation* AddRelation(SymbolId relation, int arity, int key_arity);
  /// `table` of `relation`, built first if it is not yet.
  const RunTable& Built(Table& table, SymbolId relation) const;
  /// Whether the fact `rep` has `table`'s key `key`.
  bool KeyEqual(const Table& table, const SymbolId* key, int rep) const;
  /// The run of `key` in `table` of `relation`.
  FactRun Probe(Table& table, SymbolId relation, const SymbolId* key) const;
  /// Over a database: the block (relation, key[0..key_arity)).
  FactRun Block(SymbolId relation, const SymbolId* key,
                size_t key_arity) const;
  /// Adds `id` to, or drops it from, every structure holding it: the
  /// relation's built tables, and an owning index's relation list and
  /// address table.
  void Attach(int id);
  void Detach(int id);
  /// Adds `id`, the id of `fact`, to `table`, keeping bytes_ current.
  void AddTo(Table& table, int id, const Fact& fact);
  /// Every structure holding `from` holds `to` instead.
  void Renumber(int from, int to);
  /// The owning index's id of `fact`'s address, or -1.
  int IdOfAddress(const Fact* fact) const;
  /// Turns an index over a database into an owning index over its facts.
  void Own();

  /// The database this index follows, or null for an owning index.
  const Database* db_ = nullptr;
  std::vector<std::unique_ptr<Relation>> rels_;
  /// rels_ by relation id: open addressing over a power-of-two array.
  std::vector<Relation*> dir_;
  /// Owning index only: id -> fact, its slot in its relation's list, and
  /// the ids by address.
  std::vector<const Fact*> ptrs_;
  std::vector<int> rel_slots_;
  std::unique_ptr<RunTable> by_address_;
  mutable std::atomic<size_t> bytes_{0};
};

/// True iff some valuation embeds `q` into the indexed facts.
bool Satisfies(const FactIndex& index, const Query& q);
bool Satisfies(const Database& db, const Query& q);
bool Satisfies(const Repair& repair, const Query& q);

/// Enumerates embeddings θ with θ(q) ⊆ index. The callback returns false
/// to stop; `initial` seeds the search with pre-bound variables.
/// Returns true when the enumeration ran to completion.
bool ForEachEmbedding(const FactIndex& index, const Query& q,
                      const Valuation& initial,
                      const std::function<bool(const Valuation&)>& fn,
                      MatcherMode mode = MatcherMode::kIndexed);

/// Like ForEachEmbedding, but also hands the callback the ids of the
/// matched facts, aligned with q.atoms(): index.fact(fact_ids[i]) ==
/// θ(q.atom(i)). Over an index on a database these are its fact ids, so
/// consumers that need fact identities (SAT encoding, repair counting,
/// conflict graphs) read them directly instead of re-materializing
/// θ(atom) and hashing it back to an id.
using EmbeddingFactsFn = std::function<bool(
    const Valuation&, const std::vector<int>& fact_ids)>;
bool ForEachEmbeddingFacts(const FactIndex& index, const Query& q,
                           const Valuation& initial,
                           const EmbeddingFactsFn& fn);

/// True iff some embedding of `q` into `index` extends `initial`.
bool SatisfiesWith(const FactIndex& index, const Query& q,
                   const Valuation& initial);

/// The candidate-answer enumeration primitive of the answering layers:
/// the distinct projections θ|vars over all embeddings θ of `q` into
/// `index` that extend some valuation of `seeds`, sorted
/// lexicographically — the candidate-row shape the batched certainty
/// deciders (`QueryPlan::IsCertainRows`) consume. Every variable of
/// `vars` must occur in q (so every embedding binds it). A full
/// recompute passes one empty seed; the serving `Session` passes one
/// seed per dirty key pattern, so the matcher's key-prefix buckets prune
/// the scan to the candidate tuples a delta could have touched.
///
/// Projections are appended to one flat buffer that is sorted and
/// deduped once at the end. A buffer past 2^20 values and twice its
/// distinct rows is also compacted that way during the search, so a
/// projection that many embeddings share keeps memory proportional to
/// the distinct rows. With `vars` empty (Boolean) the enumeration stops
/// at the first embedding and the result is empty or the one empty row.
/// `deadline` is polled before the search and every 256 facts the search
/// reads, matched or not; expiry answers kDeadlineExceeded.
Result<std::vector<std::vector<SymbolId>>> EnumerateProjections(
    const FactIndex& index, const Query& q,
    const std::vector<Valuation>& seeds, const std::vector<SymbolId>& vars,
    const Deadline& deadline = Deadline());

/// EnumerateProjections that gives up once the distinct projections
/// exceed `max_rows`: then the result holds nullopt. The buffer is
/// compacted whenever it holds max_rows + 1 rows or twice the distinct
/// rows it kept last, whichever is more, so the search stops within
/// about 2 * max_rows + 1 buffered rows of passing the cap instead of
/// running to the end. A Boolean projection (`vars` empty) is one row.
Result<std::optional<std::vector<std::vector<SymbolId>>>>
EnumerateProjectionsAtMost(const FactIndex& index, const Query& q,
                           const std::vector<Valuation>& seeds,
                           const std::vector<SymbolId>& vars, size_t max_rows,
                           const Deadline& deadline = Deadline());

/// EnumerateProjections from the single seed `initial`, without a
/// deadline.
std::vector<std::vector<SymbolId>> CollectProjectionsSorted(
    const FactIndex& index, const Query& q, const Valuation& initial,
    const std::vector<SymbolId>& vars);

/// Adds CollectProjectionsSorted's rows to `out`.
void CollectProjections(const FactIndex& index, const Query& q,
                        const Valuation& initial,
                        const std::vector<SymbolId>& vars,
                        std::set<std::vector<SymbolId>>* out);

}  // namespace cqa

#endif  // CQA_CQ_MATCHER_H_
