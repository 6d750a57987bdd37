#include "db/purify.h"

#include <vector>

#include "cq/matcher.h"

namespace cqa {

namespace {

/// True iff there is a valuation θ with fact ∈ θ(q) ⊆ db (db given as
/// index). The fact must be matched by at least one atom, and the match
/// must extend to a full embedding. `rests[i]` is the precomputed
/// q.WithoutAtom(i).
bool FactIsRelevant(const FactIndex& index, const Query& q,
                    const std::vector<Query>& rests, const Fact& fact) {
  for (int i = 0; i < q.size(); ++i) {
    const Atom& atom = q.atom(i);
    if (atom.relation() != fact.relation() ||
        atom.arity() != fact.arity()) {
      continue;
    }
    // Seed a valuation with atom := fact, then try to embed the rest.
    Valuation seed;
    bool ok = true;
    for (int p = 0; p < atom.arity() && ok; ++p) {
      const Term& t = atom.terms()[p];
      if (t.is_const()) {
        ok = t.id() == fact.values()[p];
      } else {
        ok = seed.Bind(t.id(), fact.values()[p]);
      }
    }
    if (!ok) continue;
    if (SatisfiesWith(index, rests[i], seed)) return true;
  }
  return false;
}

std::vector<Query> RestQueries(const Query& q) {
  std::vector<Query> rests;
  rests.reserve(q.size());
  for (int i = 0; i < q.size(); ++i) rests.push_back(q.WithoutAtom(i));
  return rests;
}

}  // namespace

Database Purify(const Database& db, const Query& q) {
  return Purify(db, q, nullptr);
}

Database Purify(const Database& db, const Query& q,
                std::vector<Fact>* removed_witnesses) {
  // Iterate to a fixpoint: removing a block can make other facts
  // irrelevant. Irrelevance is monotone under removal, so hiding each
  // doomed block from one view of `db` as soon as it is found reaches the
  // same fixpoint as the paper's one-block-at-a-time sequence: each pass
  // only sees fewer facts, never more.
  std::vector<Query> rests = RestQueries(q);
  FactIndex view(db, FactIndex::Shown::kAll);
  std::vector<bool> doomed(db.blocks().size(), false);
  bool changed = true;
  while (changed) {
    changed = false;
    for (int b = 0; b < static_cast<int>(db.blocks().size()); ++b) {
      if (doomed[b]) continue;
      const Database::Block& block = db.blocks()[b];
      for (int fid : block.fact_ids) {
        if (FactIsRelevant(view, q, rests, db.facts()[fid])) continue;
        doomed[b] = true;
        changed = true;
        if (removed_witnesses != nullptr) {
          removed_witnesses->push_back(db.facts()[fid]);
        }
        for (int gone : block.fact_ids) view.Hide(gone);
        break;
      }
    }
  }
  // The kept blocks in input order, each block's facts in order.
  std::vector<int> kept;
  kept.reserve(view.total());
  for (int b = 0; b < static_cast<int>(db.blocks().size()); ++b) {
    if (doomed[b]) continue;
    const std::vector<int>& ids = db.blocks()[b].fact_ids;
    kept.insert(kept.end(), ids.begin(), ids.end());
  }
  return db.Subset(kept);
}

bool IsPurified(const Database& db, const Query& q) {
  std::vector<Query> rests = RestQueries(q);
  FactIndex index(db);
  for (const Fact& f : db.facts()) {
    if (!FactIsRelevant(index, q, rests, f)) return false;
  }
  return true;
}

}  // namespace cqa
