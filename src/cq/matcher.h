#ifndef CQA_CQ_MATCHER_H_
#define CQA_CQ_MATCHER_H_

#include <functional>
#include <optional>
#include <set>
#include <unordered_map>
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
/// `FactIndex` maintains, per relation R:
///
///   * the plain fact list (`Facts`), as before;
///   * *position indexes* — for a position p, a hash map
///     `value -> facts of R with values()[p] == value` (`FactsAt`);
///   * *key-prefix indexes* — for a prefix length k, a hash map
///     `(v_1..v_k) -> facts of R whose first k values are v_1..v_k`
///     (`FactsWithKeyPrefix`). With k = the key arity of R the buckets
///     are exactly the primary-key blocks of the database, so a lookup
///     with a fully bound key returns one block.
///
/// Both kinds are built lazily, on the first probe of a (relation,
/// position) or (relation, prefix-length) pair, and are maintained
/// incrementally by `Add`/`Remove`/`SwapFact`. `SwapFact` is the repair
/// hot path: enumerating repairs changes one block's choice at a time, so
/// solvers mutate one shared index per block-choice change instead of
/// rebuilding an index per repair (see RepairEnumerator::ForEachIndexed).
///
/// ## Join evaluation and atom ordering
///
/// The indexed matcher picks, at every search node, the *not-yet-matched
/// atom with the fewest candidate facts under the current partial
/// valuation* (dynamic selectivity ordering), where the candidate set of
/// an atom is the smallest of: its key-prefix bucket (when every key
/// position is a constant or bound variable), its single-position buckets
/// over all bound positions, and the whole relation. A branch dies as
/// soon as any remaining atom has zero candidates. This subsumes the old
/// static order-by-relation-size heuristic: once the first atom binds a
/// join variable, subsequent atoms are matched by hash lookup on that
/// binding rather than by scanning their relation.
///
/// The pre-index matcher is retained as `MatcherMode::kNaive` (static
/// atom order, full relation scans) and serves as the differential-
/// testing oracle: a test names it at its ForEachEmbedding call site.
/// Every other entry point runs the indexed matcher.

namespace cqa {

/// Candidate selection policy of ForEachEmbedding. kIndexed is the
/// production path; kNaive is the retained scan-based oracle.
enum class MatcherMode { kIndexed, kNaive };

/// A hash-indexed per-relation view over a set of facts. Used both for
/// whole databases and for individual repairs (which are just fact
/// lists). Facts are referenced by pointer; callers keep them alive.
/// Lazy sub-indexes make the accessors logically-const but not
/// thread-safe (matching the single-threaded session model).
class FactIndex {
 public:
  FactIndex() = default;
  explicit FactIndex(const Database& db);
  explicit FactIndex(const Repair& repair);

  /// Inserts `fact`. The pointer must stay valid until removed.
  void Add(const Fact* fact);

  /// Removes a pointer previously passed to Add (no-op for strangers).
  void Remove(const Fact* fact);

  /// Remove(old_fact) + Add(new_fact): the per-block repair transition.
  void SwapFact(const Fact* old_fact, const Fact* new_fact);

  /// All facts of `relation`, in insertion order (mutations may permute).
  const std::vector<const Fact*>& Facts(SymbolId relation) const;

  /// Facts of `relation` with values()[position] == value. `position`
  /// must be >= 0; facts of arity <= position are never included.
  const std::vector<const Fact*>& FactsAt(SymbolId relation, int position,
                                          SymbolId value) const;

  /// Facts of `relation` whose first prefix.size() values equal `prefix`.
  /// With prefix.size() == key arity these buckets are the blocks.
  const std::vector<const Fact*>& FactsWithKeyPrefix(
      SymbolId relation, const std::vector<SymbolId>& prefix) const;

  /// Membership test by fact value (hash lookup; the value-identity
  /// multiset is built lazily on first use).
  bool Contains(const Fact& fact) const;

  size_t total() const { return total_; }

 private:
  struct VecHash {
    size_t operator()(const std::vector<SymbolId>& k) const {
      size_t h = 0x9e3779b97f4a7c15ull;
      for (SymbolId v : k) h = h * 1000003u + v;
      return h;
    }
  };
  using Bucket = std::vector<const Fact*>;

  struct Relation {
    Bucket facts;
    /// fact pointer -> slot in `facts`, for O(1) swap-with-last removal.
    /// Built lazily on the first Remove/SwapFact of the relation, so
    /// read-only indexes (the common case) never pay for it.
    mutable std::unordered_map<const Fact*, size_t> slot;
    mutable bool slots_built = false;
    /// Lazy position indexes; by_position[p] exists once FactsAt probed p.
    mutable std::unordered_map<int, std::unordered_map<SymbolId, Bucket>>
        by_position;
    /// Lazy key-prefix indexes, keyed by prefix length.
    mutable std::unordered_map<int,
                               std::unordered_map<std::vector<SymbolId>,
                                                  Bucket, VecHash>>
        by_prefix;
  };

  const Relation* FindRelation(SymbolId relation) const;
  static void DropFromBucket(Bucket* bucket, const Fact* fact);

  std::unordered_map<SymbolId, Relation> rels_;
  /// Value-identity multiset (distinct pointers may carry equal facts),
  /// built lazily on the first Contains.
  mutable std::unordered_map<Fact, int, FactHash> fact_counts_;
  mutable bool counts_built_ = false;
  size_t total_ = 0;
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

/// Like ForEachEmbedding, but also hands the callback the matched facts,
/// aligned with q.atoms(): facts_by_atom[i] == θ(q.atom(i)). Consumers
/// that need fact identities (SAT encoding, repair counting, conflict
/// graphs) read them directly instead of re-materializing θ(atom) and
/// hashing it back to a fact id.
using EmbeddingFactsFn = std::function<bool(
    const Valuation&, const std::vector<const Fact*>& facts_by_atom)>;
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
