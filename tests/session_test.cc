#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "cq/corpus.h"
#include "cq/parser.h"
#include "gen/db_gen.h"
#include "gen/query_gen.h"
#include "serve/session.h"
#include "solve_helpers.h"
#include "util/rng.h"
#include "util/rw_gate.h"

#include <chrono>
#include <condition_variable>
#include <mutex>

namespace cqa {
namespace {

using Rows = std::vector<std::vector<SymbolId>>;

/// Every row of a flat answer snapshot, as vectors.
Rows AllRows(const RowBlock& block) { return block.Rows(0, block.size()); }

/// Copies a served copy-on-write snapshot into a plain row vector, so
/// the assertions below keep comparing values (the snapshot-sharing
/// behaviour itself is covered by AnswerSnapshotsAreSharedCopyOnWrite).
Result<Rows> Materialize(Result<std::shared_ptr<const RowBlock>> r) {
  if (!r.ok()) return r.status();
  return AllRows(**r);
}

/// The certain answers `session` serves for (q, fv), as plain rows.
Result<Rows> Serve(Session& session, const Query& q,
                   const std::vector<SymbolId>& fv) {
  return Materialize(testutil::SessionCertainAnswers(session, q, fv));
}

Fact F(const std::string& relation, const std::vector<std::string>& values,
       int key_arity) {
  return Fact::Make(relation, values, key_arity);
}

// ------------------------------------------------ Database::RemoveFact

TEST(SessionTest, DatabaseRemoveFactKeepsEveryStructureCoherent) {
  Database db;
  ASSERT_TRUE(db.AddFact(F("R", {"a", "x"}, 1)).ok());
  ASSERT_TRUE(db.AddFact(F("R", {"a", "y"}, 1)).ok());
  ASSERT_TRUE(db.AddFact(F("R", {"b", "x"}, 1)).ok());
  ASSERT_TRUE(db.AddFact(F("S", {"x", "1"}, 1)).ok());
  ASSERT_EQ(db.size(), 4);
  ASSERT_EQ(db.blocks().size(), 3u);

  // Removing a middle fact relocates the last fact into its slot.
  ASSERT_TRUE(db.RemoveFact(F("R", {"a", "y"}, 1)).ok());
  EXPECT_EQ(db.size(), 3);
  EXPECT_FALSE(db.Contains(F("R", {"a", "y"}, 1)));
  EXPECT_TRUE(db.Contains(F("R", {"a", "x"}, 1)));
  EXPECT_TRUE(db.Contains(F("S", {"x", "1"}, 1)));
  // Ids stay dense.
  for (int i = 0; i < db.size(); ++i) {
    EXPECT_EQ(db.FactId(db.facts()[i]), i);
  }
  // Blocks reference only live ids.
  size_t facts_in_blocks = 0;
  for (const Database::Block& block : db.blocks()) {
    for (int fid : block.fact_ids) {
      ASSERT_GE(fid, 0);
      ASSERT_LT(fid, db.size());
      EXPECT_EQ(db.facts()[fid].relation(), block.relation);
      ++facts_in_blocks;
    }
  }
  EXPECT_EQ(facts_in_blocks, static_cast<size_t>(db.size()));

  // Removing the sole fact of a block drops the block.
  ASSERT_TRUE(db.RemoveFact(F("S", {"x", "1"}, 1)).ok());
  EXPECT_EQ(db.blocks().size(), 2u);
  EXPECT_EQ(db.FindBlock(InternSymbol("S"), {InternSymbol("x")}), nullptr);

  // Removing an absent fact fails and changes nothing.
  EXPECT_EQ(db.RemoveFact(F("S", {"x", "1"}, 1)).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(db.size(), 2);

  // Down to empty and back up again.
  ASSERT_TRUE(db.RemoveFact(F("R", {"a", "x"}, 1)).ok());
  ASSERT_TRUE(db.RemoveFact(F("R", {"b", "x"}, 1)).ok());
  EXPECT_TRUE(db.empty());
  EXPECT_TRUE(db.blocks().empty());
  ASSERT_TRUE(db.AddFact(F("R", {"c", "z"}, 1)).ok());
  EXPECT_EQ(db.FactId(F("R", {"c", "z"}, 1)), 0);
}

TEST(SessionTest, DatabaseCopyIsIndependentOfTheOriginal) {
  Database db;
  ASSERT_TRUE(db.AddFact(F("R", {"a", "x"}, 1)).ok());
  ASSERT_TRUE(db.AddFact(F("R", {"b", "y"}, 1)).ok());
  Database copy = db;
  // The original keeps working after the copy mutates.
  ASSERT_TRUE(copy.RemoveFact(F("R", {"a", "x"}, 1)).ok());
  EXPECT_EQ(db.size(), 2);
  EXPECT_EQ(copy.size(), 1);
  EXPECT_EQ(db.FactId(db.facts()[0]), 0);
}

// ----------------------------------------------------------- deltas

TEST(SessionTest, DeltaIsTransactional) {
  Database db = corpus::ConferenceDatabase();
  Session session(db);
  std::string before = session.db().ToString();

  // A valid insert followed by an invalid remove: nothing may change.
  Delta bad;
  bad.Insert(F("C", {"ICDT", "2099", "Lyon"}, 2));
  bad.Remove(F("C", {"nope", "nope", "nope"}, 2));
  Result<uint64_t> applied = session.ApplyDelta(bad);
  EXPECT_FALSE(applied.ok());
  EXPECT_EQ(applied.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(session.epoch(), 0u);
  EXPECT_EQ(session.db().ToString(), before);

  // A fact contradicting the schema rejects the delta too.
  Delta bad_sig;
  bad_sig.Insert(F("C", {"only-key"}, 1));
  EXPECT_EQ(session.ApplyDelta(bad_sig).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(session.epoch(), 0u);

  // Sequential semantics inside one delta: remove-then-insert works.
  Delta good;
  Fact fact = *session.db().facts().begin();
  good.Remove(fact).Insert(fact);
  ASSERT_TRUE(session.ApplyDelta(good).ok());
  EXPECT_EQ(session.epoch(), 1u);
  EXPECT_EQ(session.db().ToString(), before);
}

TEST(SessionTest, ReplaceBlockReplacesDeletesAndCreates) {
  Database db;
  ASSERT_TRUE(db.AddFact(F("R", {"a", "x"}, 1)).ok());
  ASSERT_TRUE(db.AddFact(F("R", {"a", "y"}, 1)).ok());
  ASSERT_TRUE(db.AddFact(F("R", {"b", "x"}, 1)).ok());
  Session session(std::move(db));

  // Replace block a with one fresh fact (x survives? no: replaced).
  Delta replace;
  replace.ReplaceBlock(InternSymbol("R"), {InternSymbol("a")},
                       {F("R", {"a", "z"}, 1)});
  ASSERT_TRUE(session.ApplyDelta(replace).ok());
  EXPECT_TRUE(session.db().Contains(F("R", {"a", "z"}, 1)));
  EXPECT_FALSE(session.db().Contains(F("R", {"a", "x"}, 1)));
  EXPECT_FALSE(session.db().Contains(F("R", {"a", "y"}, 1)));
  EXPECT_EQ(session.db().size(), 2);

  // Empty replacement deletes the block; replacing a missing block is a
  // pure insert.
  Delta shuffle;
  shuffle.ReplaceBlock(InternSymbol("R"), {InternSymbol("b")}, {});
  shuffle.ReplaceBlock(InternSymbol("R"), {InternSymbol("c")},
                       {F("R", {"c", "u"}, 1), F("R", {"c", "v"}, 1)});
  ASSERT_TRUE(session.ApplyDelta(shuffle).ok());
  EXPECT_EQ(session.db().size(), 3);
  EXPECT_FALSE(session.db().Contains(F("R", {"b", "x"}, 1)));
  EXPECT_TRUE(session.db().Contains(F("R", {"c", "u"}, 1)));

  // A fact of the wrong block rejects the delta.
  Delta wrong;
  wrong.ReplaceBlock(InternSymbol("R"), {InternSymbol("c")},
                     {F("R", {"d", "u"}, 1)});
  EXPECT_EQ(session.ApplyDelta(wrong).status().code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------- serving

TEST(SessionTest, SolveAndBatchMatchEngineAcrossDeltas) {
  Database db = corpus::ConferenceDatabase();
  Session::Options options;
  options.num_threads = 4;
  Session session(db, options);
  std::vector<Query> queries = {corpus::ConferenceQuery(),
                                corpus::PathQuery2(),
                                corpus::ConferenceQuery()};
  std::vector<std::shared_ptr<const QueryPlan>> plans;
  for (const Query& q : queries) {
    plans.push_back(testutil::GlobalPlan(q).value());
  }

  for (int round = 0; round < 3; ++round) {
    std::vector<Result<SolveOutcome>> batch = session.SolveBatch(plans);
    ASSERT_EQ(batch.size(), queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      ASSERT_TRUE(batch[i].ok()) << batch[i].status();
      Result<SolveOutcome> expected =
          testutil::Solve(session.db(), queries[i]);
      ASSERT_TRUE(expected.ok());
      EXPECT_EQ(batch[i]->certain, expected->certain) << i;
      EXPECT_EQ(batch[i]->solver, expected->solver) << i;
    }
    // Mutate between rounds: retract and re-grant PODS's A rating.
    Delta delta;
    if (round == 0) {
      delta.Remove(F("R", {"PODS", "A"}, 1));
    } else {
      delta.Insert(F("R", {"PODS", "A"}, 1));
    }
    ASSERT_TRUE(session.ApplyDelta(delta).ok());
  }
}

TEST(SessionTest, CertainAnswersServedFromCacheAcrossUnrelatedDeltas) {
  Database db;
  for (int i = 0; i < 8; ++i) {
    std::string a = "a" + std::to_string(i);
    std::string b = "b" + std::to_string(i);
    ASSERT_TRUE(db.AddFact(F("R", {a, b}, 1)).ok());
    ASSERT_TRUE(db.AddFact(F("S", {b, "c"}, 1)).ok());
  }
  ASSERT_TRUE(db.AddFact(F("Z", {"z", "z"}, 1)).ok());
  Session::Options options;
  options.num_threads = 2;
  Session session(db, options);

  Query q = MustParseQuery("R(x | y), S(y | z)");
  std::vector<SymbolId> fv = {InternSymbol("x")};
  Result<Rows> first = Serve(session, q, fv);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(first->size(), 8u);
  EXPECT_EQ(session.stats().answers_full, 1u);

  // Same epoch: verbatim cache hit.
  Result<Rows> again = Serve(session, q, fv);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *first);
  EXPECT_EQ(session.stats().answers_cached, 1u);

  // A delta on a relation the query never mentions: the entry stays
  // valid and is served without re-deciding any row.
  Delta unrelated;
  unrelated.Insert(F("Z", {"y", "y"}, 1));
  ASSERT_TRUE(session.ApplyDelta(unrelated).ok());
  Result<Rows> after = Serve(session, q, fv);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, *first);
  Session::Stats stats = session.stats();
  EXPECT_EQ(stats.answers_incremental, 1u);
  EXPECT_EQ(stats.rows_decided, 8u);  // the initial full compute only

  // A delta into one R block: only that block's row is re-decided.
  Delta touch;
  touch.ReplaceBlock(InternSymbol("R"),
                     {InternSymbol("a3")},
                     {F("R", {"a3", "nowhere"}, 1)});
  ASSERT_TRUE(session.ApplyDelta(touch).ok());
  Result<Rows> pruned = Serve(session, q, fv);
  ASSERT_TRUE(pruned.ok());
  EXPECT_EQ(pruned->size(), 7u);  // a3 now dangles into no S fact
  stats = session.stats();
  EXPECT_EQ(stats.answers_incremental, 2u);
  EXPECT_EQ(stats.rows_decided, 8u + 0u);  // a3 is no longer possible
  EXPECT_EQ(stats.rows_reused, 7u);  // the unrelated delta reused the
                                     // snapshot without visiting a row

  // Differential against a fresh engine on the materialized database.
  Result<Rows> expected = testutil::CertainAnswers(session.db(), q, fv);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(*pruned, *expected);
}

TEST(SessionTest, BooleanAnswersUseRelationLevelInvalidation) {
  Database db = corpus::ConferenceDatabase();
  ASSERT_TRUE(db.AddFact(F("Z", {"z"}, 1)).ok());
  Session::Options options;
  options.num_threads = 2;
  Session session(db, options);
  Query q = corpus::ConferenceQuery();

  Result<Rows> base = Serve(session, q, {});
  ASSERT_TRUE(base.ok());
  Result<Rows> expected = testutil::CertainAnswers(session.db(), q, {});
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(*base, *expected);

  Delta unrelated;
  unrelated.Insert(F("Z", {"zz"}, 1));
  ASSERT_TRUE(session.ApplyDelta(unrelated).ok());
  Result<Rows> cached = Serve(session, q, {});
  ASSERT_TRUE(cached.ok());
  EXPECT_EQ(*cached, *base);
  EXPECT_EQ(session.stats().answers_incremental, 1u);

  // Touching the query's relation forces a recompute and tracks the
  // flipped result.
  Delta flip;
  flip.Remove(F("R", {"PODS", "A"}, 1));
  ASSERT_TRUE(session.ApplyDelta(flip).ok());
  Result<Rows> after = Serve(session, q, {});
  ASSERT_TRUE(after.ok());
  Result<Rows> fresh = testutil::CertainAnswers(session.db(), q, {});
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(*after, *fresh);
  EXPECT_GE(session.stats().answers_full, 2u);
}

// --------------------------------------------- randomized differential

/// Random facts compatible with q's schema, the delta fodder.
std::vector<Fact> FactPool(const Query& q, uint64_t seed) {
  BlockDbGenOptions options;
  options.seed = seed;
  options.blocks_per_relation = 3;
  options.max_block_size = 2;
  options.domain_size = 4;
  Database pool = RandomBlockDatabase(q, options);
  return std::vector<Fact>(pool.facts().begin(), pool.facts().end());
}

/// A random delta over the session's current database: inserts from the
/// pool, removes of live facts, and block replacements. Tracks the facts
/// already consumed by earlier ops of the same delta so a valid delta
/// never removes the same fact twice.
Delta RandomDelta(const Database& db, const std::vector<Fact>& pool,
                  Rng* rng) {
  Delta delta;
  std::unordered_set<Fact, FactHash> consumed;
  int ops = static_cast<int>(rng->Range(1, 3));
  for (int i = 0; i < ops; ++i) {
    switch (rng->Below(3)) {
      case 0:
        if (!pool.empty()) {
          delta.Insert(pool[rng->Below(pool.size())]);
        }
        break;
      case 1:
        if (!db.empty()) {
          const Fact& fact = db.facts()[rng->Below(db.facts().size())];
          if (consumed.insert(fact).second) delta.Remove(fact);
        }
        break;
      default:
        if (!db.blocks().empty()) {
          const Database::Block& block =
              db.blocks()[rng->Below(db.blocks().size())];
          std::vector<Fact> facts;
          bool fresh = true;
          for (int fid : block.fact_ids) {
            const Fact& fact = db.facts()[fid];
            fresh = fresh && consumed.insert(fact).second;
            if (rng->Chance(1, 2)) facts.push_back(fact);
          }
          if (!fresh) break;  // an earlier op already touched this block
          for (const Fact& f : pool) {
            if (f.relation() == block.relation &&
                f.key_arity() ==
                    static_cast<int>(block.key.size()) &&
                f.KeyValues() == block.key && rng->Chance(1, 3)) {
              facts.push_back(f);
            }
          }
          delta.ReplaceBlock(block.relation, block.key, std::move(facts));
        }
        break;
    }
  }
  return delta;
}

/// The ISSUE's acceptance bar: after any random sequence of deltas, the
/// session's certain answers must equal a fresh engine computation on
/// the materialized database. >= 200 (db, delta-seq, query) triples;
/// the session path exercises the dirty-row cache, the fresh engine
/// rebuilds from scratch.
TEST(SessionTest, RandomDeltaSequencesMatchFreshEngine) {
  constexpr int kSeeds = 70;
  constexpr int kDeltasPerSeed = 3;
  int triples = 0;
  for (int seed = 1; seed <= kSeeds; ++seed) {
    QueryGenOptions qopt;
    qopt.seed = seed;
    qopt.num_atoms = static_cast<int>(1 + (seed % 3));
    qopt.max_arity = 3;
    Query q = RandomAcyclicQuery(qopt);

    BlockDbGenOptions dopt;
    dopt.seed = seed * 31;
    dopt.blocks_per_relation = 3;
    dopt.max_block_size = 2;
    dopt.domain_size = 4;
    Database db = RandomBlockDatabase(q, dopt);
    std::vector<Fact> pool = FactPool(q, seed * 131);

    // Up to two free variables of q.
    VarSet vars = q.Vars();
    std::vector<SymbolId> fv(vars.begin(), vars.end());
    Rng rng(seed * 977);
    rng.Shuffle(&fv);
    fv.resize(std::min<size_t>(fv.size(), seed % 3));

    Session::Options sopt;
    sopt.num_threads = 2;
    Session session(std::move(db), sopt);

    for (int d = 0; d < kDeltasPerSeed; ++d) {
      Delta delta = RandomDelta(session.db(), pool, &rng);
      Result<uint64_t> applied = session.ApplyDelta(delta);
      ASSERT_TRUE(applied.ok()) << applied.status();

      Result<Rows> served = Serve(session, q, fv);
      ASSERT_TRUE(served.ok())
          << seed << "/" << d << ": " << served.status();
      Result<Rows> fresh = testutil::CertainAnswers(session.db(), q, fv);
      ASSERT_TRUE(fresh.ok()) << fresh.status();
      EXPECT_EQ(*served, *fresh)
          << "seed " << seed << " delta " << d << " query "
          << q.ToString();
      ++triples;
    }
  }
  EXPECT_GE(triples, 200);
}

/// Facts of `relation` in `db`.
size_t FactsOf(const Database& db, SymbolId relation) {
  return static_cast<size_t>(
      std::count_if(db.facts().begin(), db.facts().end(),
                    [&](const Fact& f) { return f.relation() == relation; }));
}

/// Full recomputes after the first take their candidates from the atom
/// of q covering every free variable when q has two or more atoms, the
/// FO program decides the rows and that atom's relation holds at most
/// 1.5 times the previous answer count, and from the join otherwise.
/// Either way the served rows and their order must equal a fresh engine
/// computation. With
/// max_dirty_patterns = 0 every delta that reaches the entry forces a
/// full recompute; `answers_covered` says which path each one took.
TEST(SessionTest, CoveringAtomCandidatesMatchFreshEngine) {
  struct Case {
    Query q;
    std::vector<SymbolId> fv;
    Database db;
    std::vector<Fact> pool;  // delta fodder
  };
  std::vector<Case> cases;
  for (int seed = 1; seed <= 90; ++seed) {
    QueryGenOptions qopt;
    qopt.seed = seed * 7 + 2;
    qopt.num_atoms = 1 + seed % 3;
    qopt.max_arity = 3;
    Query q = RandomAcyclicQuery(qopt);
    VarSet vars = q.Vars();
    std::vector<SymbolId> fv(vars.begin(), vars.end());
    Rng rng(seed * 389);
    rng.Shuffle(&fv);
    fv.resize(std::min<size_t>(fv.size(), 1 + seed % 2));
    if (fv.empty()) continue;
    BlockDbGenOptions dopt;
    dopt.seed = seed * 53;
    dopt.blocks_per_relation = 2 + seed % 5;
    dopt.max_block_size = 2;
    dopt.domain_size = 6;
    cases.push_back(
        {q, fv, RandomBlockDatabase(q, dopt), FactPool(q, seed * 59)});
  }
  // q0 = R0(x | y), S0(y, z | x) is beyond FO: each row costs a scoped
  // solver call, so its full recomputes enumerate the join although
  // S0 covers z and holds no more than 1.5 times the answers.
  Case q0{corpus::Q0(), {InternSymbol("z")}, Database(), {}};
  for (int i = 0; i < 8; ++i) {
    std::string a = "a" + std::to_string(i);
    std::string b = "b" + std::to_string(i);
    std::string c = "c" + std::to_string(i % 6);
    ASSERT_TRUE(q0.db.AddFact(F("R0", {a, b}, 1)).ok());
    ASSERT_TRUE(q0.db.AddFact(F("S0", {b, c, a}, 2)).ok());
    q0.pool.push_back(F("R0", {a, "b" + std::to_string(i + 1)}, 1));
    q0.pool.push_back(F("S0", {b, "c7", a}, 2));
  }
  cases.push_back(std::move(q0));

  uint64_t covered = 0;        // candidates from the covering atom
  uint64_t over_rule = 0;      // a covering atom failed the 1.5x rule
  uint64_t without_cover = 0;  // FO plan, no atom covers
  uint64_t beyond_fo = 0;      // would be covered, but no FO program
  uint64_t one_atom = 0;       // would be covered, but q has no join
  for (size_t c = 0; c < cases.size(); ++c) {
    const Query& q = cases[c].q;
    const std::vector<SymbolId>& fv = cases[c].fv;
    const std::vector<Fact>& pool = cases[c].pool;
    Rng rng(c * 613 + 1);

    Session::Options sopt;
    sopt.num_threads = 2;
    sopt.max_dirty_patterns = 0;
    Session session(std::move(cases[c].db), sopt);
    Result<std::shared_ptr<const QueryPlan>> plan = testutil::GlobalPlan(q, fv);
    ASSERT_TRUE(plan.ok()) << plan.status();
    const bool by_program = (*plan)->DecidesRowsByProgram();

    Result<Rows> served = Serve(session, q, fv);
    ASSERT_TRUE(served.ok()) << served.status();
    EXPECT_EQ(session.stats().answers_covered, 0u);  // first page: join
    for (int d = 0; d < 4; ++d) {
      const size_t previous = served->size();
      Result<uint64_t> applied =
          session.ApplyDelta(RandomDelta(session.db(), pool, &rng));
      ASSERT_TRUE(applied.ok()) << applied.status();
      Session::Stats before = session.stats();
      served = Serve(session, q, fv);
      ASSERT_TRUE(served.ok()) << served.status();
      Session::Stats after = session.stats();
      Result<Rows> fresh = testutil::CertainAnswers(session.db(), q, fv);
      ASSERT_TRUE(fresh.ok()) << fresh.status();
      EXPECT_EQ(*served, *fresh)
          << "case " << c << " delta " << d << " query " << q.ToString();

      // The covering atom with the fewest facts, if any.
      std::optional<size_t> cover_facts;
      for (const Atom& atom : q.atoms()) {
        VarSet atom_vars = atom.Vars();
        bool covers = std::all_of(fv.begin(), fv.end(), [&](SymbolId v) {
          return atom_vars.count(v) != 0;
        });
        size_t facts = FactsOf(session.db(), atom.relation());
        if (covers && (!cover_facts || facts < *cover_facts)) {
          cover_facts = facts;
        }
      }
      const bool full = after.answers_full == before.answers_full + 1;
      const bool within_rule =
          cover_facts.has_value() && 2 * *cover_facts <= 3 * previous;
      const bool joins = q.atoms().size() > 1;
      const bool expect_cover = full && by_program && within_rule && joins;
      EXPECT_EQ(after.answers_covered - before.answers_covered,
                expect_cover ? 1u : 0u)
          << "case " << c << " delta " << d << " query " << q.ToString();
      if (!full) continue;
      if (!joins) {
        one_atom += by_program && within_rule ? 1 : 0;
      } else if (!by_program) {
        beyond_fo += within_rule ? 1 : 0;
      } else if (expect_cover) {
        ++covered;
      } else if (cover_facts.has_value()) {
        ++over_rule;
      } else {
        ++without_cover;
      }
    }
  }
  EXPECT_GT(covered, 0u);
  EXPECT_GT(over_rule, 0u);
  EXPECT_GT(without_cover, 0u);
  EXPECT_GT(beyond_fo, 0u);
  EXPECT_GT(one_atom, 0u);
}

// ------------------------------------------------------ the reach rule

using Block = std::pair<SymbolId, std::vector<SymbolId>>;

/// The blocks whose facts differ between `before` and `after`.
std::set<Block> ChangedBlocks(const Database& before, const Database& after) {
  std::set<Block> out;
  for (const Fact& f : before.facts()) {
    if (!after.Contains(f)) out.emplace(f.relation(), f.KeyValues());
  }
  for (const Fact& f : after.facts()) {
    if (!before.Contains(f)) out.emplace(f.relation(), f.KeyValues());
  }
  return out;
}

/// Whether some block of `changed` matches an atom of q whose key pins
/// no free variable (its constants equal the block's key), whether the
/// atoms of q over relations no block of `changed` belongs to cover every
/// free variable, and whether the reach stays bounded: for each such atom
/// whose key the block's key can take (repeated key variables too),
/// every free variable is linked to one of the atom's key variables
/// through variables shared by those untouched atoms.
struct Reach {
  bool unpinned = false;
  bool covered = false;
  bool bounded = true;
};
Reach ReachOf(const Query& q, const std::vector<SymbolId>& fv,
              const std::set<Block>& changed) {
  Reach reach;
  std::set<SymbolId> touched;
  for (const auto& block : changed) touched.insert(block.first);
  // Union-find over the variables of the untouched atoms.
  std::map<SymbolId, SymbolId> parent;
  std::function<SymbolId(SymbolId)> find = [&](SymbolId v) {
    auto it = parent.find(v);
    if (it == parent.end() || it->second == v) return v;
    return it->second = find(it->second);
  };
  VarSet covered;
  for (const Atom& atom : q.atoms()) {
    if (touched.count(atom.relation()) != 0) continue;
    VarSet vars = atom.Vars();
    covered.insert(vars.begin(), vars.end());
    for (SymbolId v : vars) {
      parent.emplace(v, v);
      parent[find(v)] = find(*vars.begin());
    }
  }
  reach.covered = std::all_of(fv.begin(), fv.end(), [&](SymbolId v) {
    return covered.count(v) != 0;
  });
  for (const auto& [relation, key] : changed) {
    for (const Atom& atom : q.atoms()) {
      if (atom.relation() != relation ||
          atom.key_arity() != static_cast<int>(key.size())) {
        continue;
      }
      bool constants_match = true;
      bool pins = false;
      std::map<SymbolId, SymbolId> seed;
      bool consistent = true;
      for (size_t i = 0; i < key.size(); ++i) {
        const Term& t = atom.terms()[i];
        if (t.is_const()) {
          constants_match = constants_match && t.id() == key[i];
        } else {
          pins = pins || std::find(fv.begin(), fv.end(), t.id()) != fv.end();
          consistent = seed.emplace(t.id(), key[i]).first->second == key[i] &&
                       consistent;
        }
      }
      if (!constants_match || pins) continue;
      reach.unpinned = true;
      if (!consistent || !reach.covered) continue;
      std::set<SymbolId> seeded;
      for (const auto& binding : seed) {
        if (covered.count(binding.first) != 0) {
          seeded.insert(find(binding.first));
        }
      }
      for (SymbolId v : fv) {
        if (seeded.count(find(v)) == 0) reach.bounded = false;
      }
    }
  }
  return reach;
}

/// The reach rule's differential. Random acyclic multi-atom queries with
/// one or two free variables, plus hand-picked shapes (a constant and a
/// repeated variable in a key, a relation in two atoms, free variables
/// only a touched atom covers), take random delta streams served every
/// one to three deltas. Every serve must equal a fresh engine's rows and
/// order. With no bound on the patterns, an entry is refreshed in place
/// unless a changed block matches an atom whose key pins no free
/// variable and the atoms over untouched relations miss a free variable,
/// or hold one that no chain of shared variables links to that atom's
/// key; then it is recomputed in full.
TEST(SessionTest, ReachRuleMatchesFreshEngine) {
  struct Case {
    Query q;
    std::vector<SymbolId> fv;
  };
  std::vector<Case> cases;
  auto var = [](const char* name) { return InternSymbol(name); };
  // The hand-picked shapes run over eight random databases each.
  for (int copy = 0; copy < 8; ++copy) {
    cases.push_back({MustParseQuery("R(x | y), S(y | z)"), {var("x")}});
    cases.push_back({MustParseQuery("R(x | y), S(y, y | z)"), {var("x")}});
    cases.push_back(
        {MustParseQuery("R(x | y), S('c1', y | z)"), {var("x")}});
    cases.push_back(
        {MustParseQuery("R(x | y), S(y | z), S(z | w)"), {var("x")}});
    cases.push_back(
        {MustParseQuery("R(x | y), S(y | z), T(x | w)"), {var("x")}});
    cases.push_back(
        {MustParseQuery("R(x | y), S(y | z)"), {var("x"), var("z")}});
    cases.push_back({MustParseQuery("R(x | y), S(y | z)"), {var("z")}});
    cases.push_back({MustParseQuery("R(x | y), S(y | z), T(z | w)"),
                     {var("x"), var("w")}});
  }
  for (int seed = 1; cases.size() < 240; ++seed) {
    QueryGenOptions qopt;
    qopt.seed = seed * 11 + 5;
    qopt.num_atoms = 2 + seed % 2;
    qopt.max_arity = 3;
    qopt.constant_percent = 15;
    Query q = RandomAcyclicQuery(qopt);
    VarSet vars = q.Vars();
    std::vector<SymbolId> fv(vars.begin(), vars.end());
    Rng rng(seed * 271);
    rng.Shuffle(&fv);
    fv.resize(std::min<size_t>(fv.size(), 1 + seed % 2));
    if (!fv.empty()) cases.push_back({q, fv});
  }

  int reached = 0;       // the rule refreshed the entry in place
  int reached_rows = 0;  // ... and re-decided at least one row
  int fell_back = 0;     // unpinned, free variables uncovered: full
  int split = 0;         // ... or covered by a component the key misses
  int pinned_only = 0;   // no unpinned block: pinned patterns as before
  int self_join = 0;     // serves of a plan beyond FO
  for (size_t c = 0; c < cases.size(); ++c) {
    const Query& q = cases[c].q;
    const std::vector<SymbolId>& fv = cases[c].fv;
    BlockDbGenOptions dopt;
    dopt.seed = c * 97 + 3;
    dopt.blocks_per_relation = 4;
    dopt.max_block_size = 2;
    dopt.domain_size = 4;
    std::vector<Fact> pool = FactPool(q, c * 41 + 9);
    Rng rng(c * 389 + 1);

    Session::Options sopt;
    sopt.num_threads = 2;
    sopt.max_dirty_patterns = std::numeric_limits<size_t>::max();
    Session session(RandomBlockDatabase(q, dopt), sopt);
    const bool beyond_fo =
        !testutil::GlobalPlan(q, fv).value()->DecidesRowsByProgram();

    ASSERT_TRUE(testutil::SessionCertainAnswers(session, q, fv).ok());
    for (int serve = 0; serve < 12; ++serve) {
      // Most ranges stay on one relation of q, so that the untouched
      // atoms can cover the free variables; the rest roam.
      std::optional<SymbolId> only;
      if (!rng.Chance(1, 4)) {
        only = q.atoms()[rng.Below(q.atoms().size())].relation();
      }
      std::vector<Fact> range_pool;
      for (const Fact& f : pool) {
        if (!only || f.relation() == *only) range_pool.push_back(f);
      }
      std::set<Block> changed;
      int deltas = static_cast<int>(rng.Range(1, 3));
      for (int d = 0; d < deltas; ++d) {
        Delta delta = RandomDelta(
            only ? session.db().Restrict({*only}) : session.db(), range_pool,
            &rng);
        // The session logs the blocks each delta changes on net.
        Database before_delta = session.db();
        ASSERT_TRUE(session.ApplyDelta(delta).ok());
        std::set<Block> net = ChangedBlocks(before_delta, session.db());
        changed.insert(net.begin(), net.end());
      }
      Session::Stats before = session.stats();
      Result<Rows> served = Serve(session, q, fv);
      ASSERT_TRUE(served.ok()) << served.status();
      Session::Stats after = session.stats();
      Result<Rows> fresh = testutil::CertainAnswers(session.db(), q, fv);
      ASSERT_TRUE(fresh.ok()) << fresh.status();
      ASSERT_EQ(*served, *fresh)
          << "case " << c << " serve " << serve << " query " << q.ToString();

      Reach reach = ReachOf(q, fv, changed);
      const bool full =
          reach.unpinned && (!reach.covered || !reach.bounded);
      EXPECT_EQ(after.answers_full - before.answers_full, full ? 1u : 0u)
          << "case " << c << " serve " << serve << " query " << q.ToString();
      EXPECT_EQ(after.answers_incremental - before.answers_incremental,
                full ? 0u : 1u)
          << "case " << c << " serve " << serve << " query " << q.ToString();
      if (!reach.unpinned) {
        ++pinned_only;
      } else if (full) {
        ++fell_back;
        if (reach.covered) ++split;
      } else {
        ++reached;
        if (after.rows_decided > before.rows_decided) ++reached_rows;
      }
      if (beyond_fo) ++self_join;
    }
  }
  EXPECT_GT(reached, 200);
  EXPECT_GT(reached_rows, 80);
  EXPECT_GT(fell_back, 100);
  EXPECT_GT(split, 20);
  EXPECT_GT(pinned_only, 100);
  EXPECT_GT(self_join, 0);
}

/// The reach enumeration takes the request's deadline: an expired one
/// answers kDeadlineExceeded and leaves the cache entry as it was.
TEST(SessionTest, ReachEnumerationHonoursTheDeadline) {
  Database db;
  for (int i = 0; i < 8; ++i) {
    std::string a = "a" + std::to_string(i);
    std::string b = "b" + std::to_string(i % 4);
    ASSERT_TRUE(db.AddFact(F("R", {a, b}, 1)).ok());
  }
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(db.AddFact(F("S", {"b" + std::to_string(i), "c"}, 1)).ok());
  }
  Session::Options options;
  options.num_threads = 2;
  Session session(std::move(db), options);
  Query q = MustParseQuery("R(x | y), S(y | z)");
  std::vector<SymbolId> fv = {InternSymbol("x")};
  std::shared_ptr<const QueryPlan> plan = testutil::GlobalPlan(q, fv).value();
  ASSERT_TRUE(session.CertainAnswers(plan, q, fv).ok());

  // S's key binds y, not the free x: an unpinned block.
  Delta unpinned;
  unpinned.ReplaceBlock(InternSymbol("S"), {InternSymbol("b1")}, {});
  ASSERT_TRUE(session.ApplyDelta(unpinned).ok());
  Session::Stats before = session.stats();
  Result<std::shared_ptr<const RowBlock>> expired = session.CertainAnswers(
      plan, q, fv, nullptr, Deadline::AfterMillis(0));
  EXPECT_EQ(expired.status().code(), StatusCode::kDeadlineExceeded);
  Session::Stats after = session.stats();
  EXPECT_EQ(after.answers_full, before.answers_full);
  EXPECT_EQ(after.answers_incremental, before.answers_incremental);
  EXPECT_EQ(after.rows_decided, before.rows_decided);

  // The entry is still at its old epoch; the next serve refreshes it.
  Result<Rows> served = Materialize(session.CertainAnswers(plan, q, fv));
  ASSERT_TRUE(served.ok()) << served.status();
  EXPECT_EQ(*served, *testutil::CertainAnswers(session.db(), q, fv));
  EXPECT_EQ(served->size(), 6u);
  after = session.stats();
  EXPECT_EQ(after.answers_incremental, before.answers_incremental + 1);
  EXPECT_EQ(after.rows_decided, before.rows_decided + 0);  // a1, a5 gone
  EXPECT_EQ(after.rows_reused, before.rows_reused + 6);
}

/// q = R(x | y), S(y | z), T(z | w) with free {x, w}: a delta on S
/// leaves U = {R, T}, and T shares no variable with S's key y, so the
/// rows S's block reaches would be R's x values for that y times every
/// w of T, found by enumerating all of T once per x. The entry is
/// recomputed in full instead, a join of a few embeddings. T is large
/// and has two w values, so the reached rows (8 x 2) would stay under
/// the bound: only the split sends the entry to the full path.
TEST(SessionTest, ReachFallsBackWhenTheChangedAtomSplitsTheCover) {
  Database db;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(db.AddFact(F("R", {"a" + std::to_string(i), "b"}, 1)).ok());
  }
  ASSERT_TRUE(db.AddFact(F("R", {"a8", "b2"}, 1)).ok());
  ASSERT_TRUE(db.AddFact(F("S", {"b", "c0"}, 1)).ok());
  ASSERT_TRUE(db.AddFact(F("S", {"b2", "c1"}, 1)).ok());
  ASSERT_TRUE(db.AddFact(F("T", {"c0", "w0"}, 1)).ok());
  ASSERT_TRUE(db.AddFact(F("T", {"c1", "w1"}, 1)).ok());
  for (int j = 0; j < 20000; ++j) {
    ASSERT_TRUE(db.AddFact(F("T", {"t" + std::to_string(j), "w0"}, 1)).ok());
  }
  Session::Options options;
  options.num_threads = 2;
  Session session(std::move(db), options);
  Query q = MustParseQuery("R(x | y), S(y | z), T(z | w)");
  std::vector<SymbolId> fv = {InternSymbol("x"), InternSymbol("w")};
  Result<Rows> first = Serve(session, q, fv);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_EQ(first->size(), 9u);

  Delta delta;  // S's key y pins neither x nor w
  delta.ReplaceBlock(InternSymbol("S"), {InternSymbol("b")},
                     {F("S", {"b", "c1"}, 1)});
  ASSERT_TRUE(session.ApplyDelta(delta).ok());
  Session::Stats before = session.stats();
  Result<Rows> served = Serve(session, q, fv);
  ASSERT_TRUE(served.ok()) << served.status();
  EXPECT_EQ(*served, *testutil::CertainAnswers(session.db(), q, fv));
  EXPECT_EQ(served->size(), 9u);
  Session::Stats after = session.stats();
  EXPECT_EQ(after.answers_full, before.answers_full + 1);
  EXPECT_EQ(after.answers_incremental, before.answers_incremental);
  EXPECT_EQ(after.rows_decided, before.rows_decided + 9);
}

/// The reach rule's bound: the reached rows may number max_dirty_patterns
/// less the key patterns, or a third of the rows the entry's last full
/// recompute decided if that is more. With max_dirty_patterns = 0 the
/// third alone decides. 100 R-blocks, 20 joined to S-block bA, 40 to bB
/// and 40 to blocks of their own. Every full recompute here decides 100
/// rows: the first and the last through the join, the other through the
/// covering atom R.
TEST(SessionTest, ReachStopsAtTheBound) {
  Database db;
  for (int i = 0; i < 100; ++i) {
    std::string b = i < 20 ? "bA" : i < 60 ? "bB" : "b" + std::to_string(i);
    ASSERT_TRUE(db.AddFact(F("R", {"a" + std::to_string(i), b}, 1)).ok());
    if (i >= 60) {
      ASSERT_TRUE(db.AddFact(F("S", {b, "c"}, 1)).ok());
    }
  }
  ASSERT_TRUE(db.AddFact(F("S", {"bA", "c"}, 1)).ok());
  ASSERT_TRUE(db.AddFact(F("S", {"bB", "c"}, 1)).ok());
  Session::Options options;
  options.num_threads = 2;
  options.max_dirty_patterns = 0;
  Session session(std::move(db), options);
  Query q = MustParseQuery("R(x | y), S(y | z)");
  std::vector<SymbolId> fv = {InternSymbol("x")};
  ASSERT_TRUE(testutil::SessionCertainAnswers(session, q, fv).ok());

  auto s_block = [](const char* b, bool present) {
    Delta delta;
    std::vector<Fact> facts;
    if (present) facts.push_back(F("S", {b, "c"}, 1));
    delta.ReplaceBlock(InternSymbol("S"), {InternSymbol(b)}, std::move(facts));
    return delta;
  };
  struct Step {
    Delta delta;
    size_t rows;       // served afterwards
    bool incremental;  // refreshed in place, not recomputed
  };
  const std::vector<Step> steps = {
      {s_block("bB", false), 60, false},  // 40 reached, 100 decided: bound 33
      {s_block("bA", false), 40, true},   // 20 reached: bound 33
      {s_block("bA", true), 60, true},    // 20 reached: bound 33
      {s_block("bB", true), 100, false},  // 40 reached: bound 33
      {s_block("bA", false), 80, true},   // 20 reached: bound 33
  };
  for (size_t i = 0; i < steps.size(); ++i) {
    ASSERT_TRUE(session.ApplyDelta(steps[i].delta).ok());
    Session::Stats before = session.stats();
    Result<Rows> served = Serve(session, q, fv);
    ASSERT_TRUE(served.ok()) << served.status();
    EXPECT_EQ(*served, *testutil::CertainAnswers(session.db(), q, fv))
        << "step " << i;
    EXPECT_EQ(served->size(), steps[i].rows) << "step " << i;
    Session::Stats after = session.stats();
    EXPECT_EQ(after.answers_incremental - before.answers_incremental,
              steps[i].incremental ? 1u : 0u)
        << "step " << i;
    EXPECT_EQ(after.answers_full - before.answers_full,
              steps[i].incremental ? 0u : 1u)
        << "step " << i;
  }
}

/// A drop and the matching restore both refresh in place: the shape of
/// BM_Session_ReachRule at 64/16, with max_dirty_patterns = 0. R(a_i |
/// b_(i/16)) for 64 blocks, a dead second fact in every seventh, and one
/// S-block per b_j. Dropping S(b0 | c0) reaches 16 rows and leaves 41
/// answers of 54, so a bound of a third of the cached rows (13) would
/// recompute the restore in full; the first computation decided 64
/// rows, so the bound is 21 for both.
TEST(SessionTest, ReachDropAndRestoreBothRefreshInPlace) {
  Database db;
  for (int i = 0; i < 64; ++i) {
    std::string a = "a" + std::to_string(i);
    std::string b = "b" + std::to_string(i / 16);
    ASSERT_TRUE(db.AddFact(F("R", {a, b}, 1)).ok());
    if (i % 7 == 0) {
      ASSERT_TRUE(db.AddFact(F("R", {a, "dead" + std::to_string(i)}, 1)).ok());
    }
  }
  for (int j = 0; j < 4; ++j) {
    std::string b = "b" + std::to_string(j);
    ASSERT_TRUE(db.AddFact(F("S", {b, "c" + std::to_string(j)}, 1)).ok());
  }
  Session::Options options;
  options.num_threads = 2;
  options.max_dirty_patterns = 0;
  Session session(std::move(db), options);
  Query q = MustParseQuery("R(x | y), S(y | z)");
  std::vector<SymbolId> fv = {InternSymbol("x")};
  Result<Rows> first = Serve(session, q, fv);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_EQ(first->size(), 54u);
  for (int round = 0; round < 2; ++round) {
    for (bool present : {false, true}) {
      Delta delta;
      std::vector<Fact> facts;
      if (present) facts.push_back(F("S", {"b0", "c0"}, 1));
      delta.ReplaceBlock(InternSymbol("S"), {InternSymbol("b0")},
                         std::move(facts));
      ASSERT_TRUE(session.ApplyDelta(delta).ok());
      Session::Stats before = session.stats();
      Result<Rows> served = Serve(session, q, fv);
      ASSERT_TRUE(served.ok()) << served.status();
      EXPECT_EQ(*served, *testutil::CertainAnswers(session.db(), q, fv));
      EXPECT_EQ(served->size(), present ? 54u : 41u);
      Session::Stats after = session.stats();
      EXPECT_EQ(after.answers_incremental, before.answers_incremental + 1)
          << "round " << round << (present ? ", restore" : ", drop");
      EXPECT_EQ(after.answers_full, before.answers_full)
          << "round " << round << (present ? ", restore" : ", drop");
      EXPECT_EQ(after.rows_decided, before.rows_decided + (present ? 16 : 0))
          << "round " << round << (present ? ", restore" : ", drop");
    }
  }
}

/// The bound counts distinct patterns: ten deltas that flip one block of
/// P, whose key pins x, give one pattern, so a further delta into an
/// S-block, whose key pins nothing, still refreshes the entry in place
/// through R under max_dirty_patterns = 4.
TEST(SessionTest, ReachBoundCountsDistinctPatterns) {
  Database db;
  for (int i = 0; i < 6; ++i) {
    std::string a = "a" + std::to_string(i);
    std::string b = "b" + std::to_string(i);
    ASSERT_TRUE(db.AddFact(F("R", {a, b}, 1)).ok());
    ASSERT_TRUE(db.AddFact(F("S", {b, "c"}, 1)).ok());
    ASSERT_TRUE(db.AddFact(F("P", {a, "p"}, 1)).ok());
  }
  Session::Options options;
  options.num_threads = 2;
  options.max_dirty_patterns = 4;
  Session session(std::move(db), options);
  Query q = MustParseQuery("R(x | y), S(y | z), P(x | v)");
  std::vector<SymbolId> fv = {InternSymbol("x")};
  ASSERT_TRUE(testutil::SessionCertainAnswers(session, q, fv).ok());

  for (int flip = 0; flip < 10; ++flip) {
    std::vector<Fact> facts = {F("P", {"a0", "p"}, 1)};
    if (flip % 2 == 0) facts.push_back(F("P", {"a0", "p2"}, 1));
    Delta pinned;  // the pattern x = a0
    pinned.ReplaceBlock(InternSymbol("P"), {InternSymbol("a0")},
                        std::move(facts));
    ASSERT_TRUE(session.ApplyDelta(pinned).ok());
  }
  Delta unpinned;  // reaches x = a1 through R
  unpinned.ReplaceBlock(InternSymbol("S"), {InternSymbol("b1")}, {});
  ASSERT_TRUE(session.ApplyDelta(unpinned).ok());
  Session::Stats before = session.stats();
  Result<Rows> served = Serve(session, q, fv);
  ASSERT_TRUE(served.ok()) << served.status();
  EXPECT_EQ(*served, *testutil::CertainAnswers(session.db(), q, fv));
  EXPECT_EQ(served->size(), 5u);
  Session::Stats after = session.stats();
  EXPECT_EQ(after.answers_incremental, before.answers_incremental + 1);
  EXPECT_EQ(after.answers_full, before.answers_full);
  EXPECT_EQ(after.rows_decided, before.rows_decided + 1);  // a0; a1 is gone
}

/// A delta that reaches no pattern of the entry keeps the cached snapshot
/// itself: no row is visited, copied or decided.
TEST(SessionTest, DeltaReachingNoPatternKeepsTheSnapshot) {
  Database db;
  for (int i = 0; i < 6; ++i) {
    std::string a = "a" + std::to_string(i);
    std::string b = "b" + std::to_string(i);
    ASSERT_TRUE(db.AddFact(F("R", {a, b}, 1)).ok());
    ASSERT_TRUE(db.AddFact(F("S", {b, "c"}, 1)).ok());
  }
  ASSERT_TRUE(db.AddFact(F("Z", {"z", "z"}, 1)).ok());
  Session::Options options;
  options.num_threads = 2;
  Session session(std::move(db), options);
  Query q = MustParseQuery("R(x | y), S(y | z)");
  std::vector<SymbolId> fv = {InternSymbol("x")};
  Result<std::shared_ptr<const RowBlock>> first =
      testutil::SessionCertainAnswers(session, q, fv);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ((*first)->size(), 6u);

  Delta same;  // rewrites a block with its own contents
  same.ReplaceBlock(InternSymbol("R"), {InternSymbol("a2")},
                    {F("R", {"a2", "b2"}, 1)});
  Delta unrelated;  // a relation the query never mentions
  unrelated.Insert(F("Z", {"y", "y"}, 1));
  // An insert that a later op of the same delta undoes: the block's
  // contents do not move, so the session logs no block.
  Delta restored;
  restored.Insert(F("R", {"a3", "e"}, 1));
  restored.ReplaceBlock(InternSymbol("R"), {InternSymbol("a3")},
                        {F("R", {"a3", "b3"}, 1)});
  for (const Delta* delta : {&same, &unrelated, &restored}) {
    Session::Stats before = session.stats();
    ASSERT_TRUE(session.ApplyDelta(*delta).ok());
    Result<std::shared_ptr<const RowBlock>> served =
        testutil::SessionCertainAnswers(session, q, fv);
    ASSERT_TRUE(served.ok());
    EXPECT_EQ(served->get(), first->get());
    Session::Stats after = session.stats();
    EXPECT_EQ(after.answers_incremental, before.answers_incremental + 1);
    EXPECT_EQ(after.answers_full, before.answers_full);
    EXPECT_EQ(after.rows_reused, before.rows_reused);
    EXPECT_EQ(after.rows_decided, before.rows_decided);
  }
}

// --------------------------------------------- flat answer snapshots

/// RowBlock::Refresh against the naive filter-and-merge: random sorted
/// blocks of width 0 to 3, random pattern sets (full rows, leading
/// columns, patterns that skip column 0) and random decided runs, each
/// row of which matches some pattern.
TEST(SessionTest, RowBlockRefreshMatchesNaiveFilterAndMerge) {
  Rng rng(20261019);
  auto matches = [](const std::vector<SymbolId>& row, const RowPattern& p) {
    return std::all_of(p.bindings.begin(), p.bindings.end(),
                       [&](const std::pair<int, SymbolId>& b) {
                         return row[b.first] == b.second;
                       });
  };
  int narrowed = 0;  // patterns that bind column 0
  int scanned = 0;   // patterns that do not
  for (int trial = 0; trial < 3000; ++trial) {
    const size_t width = rng.Below(4);
    const uint64_t domain = 1 + rng.Below(5);
    auto random_row = [&] {
      std::vector<SymbolId> row(width);
      for (SymbolId& v : row) v = static_cast<SymbolId>(1 + rng.Below(domain));
      return row;
    };
    std::set<std::vector<SymbolId>> cached;
    for (uint64_t i = rng.Below(60); i > 0; --i) cached.insert(random_row());
    Rows cached_rows(cached.begin(), cached.end());

    std::vector<RowPattern> patterns(rng.Below(5));
    for (RowPattern& p : patterns) {
      std::vector<SymbolId> row = !cached_rows.empty() && rng.Chance(1, 2)
                                      ? cached_rows[rng.Below(cached.size())]
                                      : random_row();
      switch (rng.Below(3)) {
        case 0:  // a full row
          for (size_t c = 0; c < width; ++c) {
            p.bindings.emplace_back(static_cast<int>(c), row[c]);
          }
          break;
        case 1: {  // leading columns, then maybe one more
          size_t lead = width == 0 ? 0 : 1 + rng.Below(width);
          for (size_t c = 0; c < lead; ++c) {
            p.bindings.emplace_back(static_cast<int>(c), row[c]);
          }
          if (lead + 1 < width && rng.Chance(1, 2)) {
            size_t c = lead + 1 + rng.Below(width - lead - 1);
            p.bindings.emplace_back(static_cast<int>(c), row[c]);
          }
          break;
        }
        default:  // columns after 0 only
          for (size_t c = 1; c < width; ++c) {
            if (rng.Chance(1, 2)) {
              p.bindings.emplace_back(static_cast<int>(c), row[c]);
            }
          }
          break;
      }
      (!p.bindings.empty() && p.bindings[0].first == 0 ? narrowed : scanned)++;
    }

    // Decided runs: rows matching some pattern, among them dropped rows.
    std::set<std::vector<SymbolId>> decided;
    for (uint64_t i = rng.Below(30); i > 0 && !patterns.empty(); --i) {
      std::vector<SymbolId> row = random_row();
      for (const auto& [column, value] : patterns[rng.Below(patterns.size())]
                                             .bindings) {
        row[column] = value;
      }
      decided.insert(row);
    }

    Rows expected;
    size_t kept = 0;
    for (const std::vector<SymbolId>& row : cached_rows) {
      bool dirty = std::any_of(patterns.begin(), patterns.end(),
                               [&](const RowPattern& p) {
                                 return matches(row, p);
                               });
      if (!dirty) {
        expected.push_back(row);
        ++kept;
      }
    }
    expected.insert(expected.end(), decided.begin(), decided.end());
    std::sort(expected.begin(), expected.end());

    size_t refreshed_kept = 0;
    RowBlock out = RowBlock::Refresh(
        RowBlock(width, cached_rows), patterns,
        RowBlock(width, Rows(decided.begin(), decided.end())),
        &refreshed_kept);
    ASSERT_EQ(out.width(), width);
    ASSERT_EQ(AllRows(out), expected) << "trial " << trial;
    ASSERT_EQ(refreshed_kept, kept) << "trial " << trial;
  }
  EXPECT_GT(narrowed, 1000);
  EXPECT_GT(scanned, 1000);
}

// ------------------------------------------------------- concurrency

/// Readers race a writer that flips one block between two states; every
/// read must observe one of the two epoch-consistent answer sets. Run
/// under TSan in CI (label: concurrency).
TEST(SessionTest, ConcurrentReadersSeeConsistentSnapshots) {
  Database db;
  for (int i = 0; i < 6; ++i) {
    std::string a = "a" + std::to_string(i);
    std::string b = "b" + std::to_string(i);
    ASSERT_TRUE(db.AddFact(F("R", {a, b}, 1)).ok());
    ASSERT_TRUE(db.AddFact(F("S", {b, "c"}, 1)).ok());
  }
  Query q = MustParseQuery("R(x | y), S(y | z)");
  std::vector<SymbolId> fv = {InternSymbol("x")};

  Session::Options options;
  options.num_threads = 4;
  Session session(db, options);

  // State A: R(a0 | b0) (row a0 certain). State B: R(a0 | nowhere).
  Result<Rows> rows_a = Serve(session, q, fv);
  ASSERT_TRUE(rows_a.ok());
  ASSERT_EQ(rows_a->size(), 6u);
  Rows rows_b = *rows_a;
  rows_b.erase(rows_b.begin());  // a0 sorts first

  std::atomic<bool> stop{false};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  constexpr int kReaders = 3;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      // Bounded (and yielding) so tight reader loops can never starve
      // the writer's exclusive lock on a single-core host.
      for (int it = 0; it < 200 && !stop.load(); ++it) {
        Result<Rows> got = Serve(session, q, fv);
        if (!got.ok() || (*got != *rows_a && *got != rows_b)) {
          mismatches.fetch_add(1);
        }
        std::this_thread::yield();
      }
    });
  }
  SymbolId r = InternSymbol("R");
  std::vector<SymbolId> key = {InternSymbol("a0")};
  for (int flip = 0; flip < 40; ++flip) {
    Delta delta;
    delta.ReplaceBlock(
        r, key,
        {flip % 2 == 0 ? F("R", {"a0", "nowhere"}, 1)
                       : F("R", {"a0", "b0"}, 1)});
    ASSERT_TRUE(session.ApplyDelta(delta).ok());
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(session.epoch(), 40u);

  // Settled state: back to A.
  Result<Rows> settled = Serve(session, q, fv);
  ASSERT_TRUE(settled.ok());
  EXPECT_EQ(*settled, *rows_a);
}

TEST(SessionTest, AnswerSnapshotsAreSharedCopyOnWrite) {
  Database db;
  for (int i = 0; i < 6; ++i) {
    std::string a = "a" + std::to_string(i);
    ASSERT_TRUE(db.AddFact(F("R", {a, "b"}, 1)).ok());
  }
  ASSERT_TRUE(db.AddFact(F("S", {"b", "c"}, 1)).ok());
  Session::Options options;
  options.num_threads = 2;
  Session session(std::move(db), options);
  Query q = MustParseQuery("R(x | y), S(y | z)");
  std::vector<SymbolId> fv = {InternSymbol("x")};

  auto first = testutil::SessionCertainAnswers(session, q, fv);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ((*first)->size(), 6u);

  // Same epoch: the cache hit returns the SAME snapshot object — no
  // per-serve row copy.
  auto hit = testutil::SessionCertainAnswers(session, q, fv);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(first->get(), hit->get());

  // A delta that changes the answers installs a NEW snapshot; the old
  // one, still held here, is untouched (copy-on-write semantics).
  Rows before = AllRows(**first);
  Delta drop;
  drop.ReplaceBlock(InternSymbol("R"), {InternSymbol("a0")},
                    {F("R", {"a0", "nowhere"}, 1)});
  ASSERT_TRUE(session.ApplyDelta(drop).ok());
  auto after = testutil::SessionCertainAnswers(session, q, fv);
  ASSERT_TRUE(after.ok());
  EXPECT_NE(first->get(), after->get());
  EXPECT_EQ((*after)->size(), 5u);
  EXPECT_EQ(AllRows(**first), before);
}

TEST(SessionTest, PersistentPoolReusesWorkerIndexesAcrossCalls) {
  Database db;
  for (int i = 0; i < 4; ++i) {
    std::string a = "a" + std::to_string(i);
    ASSERT_TRUE(db.AddFact(F("R", {a, "b"}, 1)).ok());
    ASSERT_TRUE(db.AddFact(F("S", {"b", "c"}, 1)).ok());
  }
  Session::Options options;
  options.num_threads = 1;  // deterministic single worker
  Session session(db, options);
  Query q = MustParseQuery("R(x | y), S(y | z)");

  // Many sequential solves share one worker context; deltas in between
  // patch its index rather than rebuilding it. Correctness is asserted
  // against the engine; the reuse itself is observable through the
  // stable result and the epoch bookkeeping.
  for (int i = 0; i < 5; ++i) {
    Result<SolveOutcome> solved = testutil::SessionSolve(session, q);
    ASSERT_TRUE(solved.ok());
    Result<SolveOutcome> expected = testutil::Solve(session.db(), q);
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(solved->certain, expected->certain);
    Delta delta;
    std::string a = "x" + std::to_string(i);
    delta.Insert(F("R", {a, "b"}, 1));
    ASSERT_TRUE(session.ApplyDelta(delta).ok());
  }
  EXPECT_EQ(session.epoch(), 5u);
  EXPECT_EQ(session.stats().facts_added, 5u);
}

// ------------------------------------------- writer-priority epoch gate

/// The deterministic writer-priority property: once a writer is
/// PENDING on the gate, a newly arriving reader must queue behind it
/// instead of slipping in alongside the readers already inside — the
/// inversion of glibc's reader-preferring rwlock that lets ApplyDelta
/// starve.
TEST(SessionTest, WriterPriorityGateBlocksNewReadersBehindPendingWriter) {
  WriterPriorityGate gate;
  std::mutex mu;
  std::condition_variable cv;
  bool writer_done = false;
  std::atomic<bool> late_reader_entered{false};

  gate.lock_shared();  // reader A is inside

  std::thread writer([&] {
    gate.lock();  // pends behind A until A leaves
    {
      std::lock_guard<std::mutex> lock(mu);
      writer_done = true;
    }
    cv.notify_all();
    gate.unlock();
  });

  // Give the writer time to announce itself, then verify a NEW reader
  // cannot acquire while it is pending.
  while (gate.try_lock_shared()) {
    // The writer has not pended yet; undo and retry.
    gate.unlock_shared();
    std::this_thread::yield();
  }
  std::thread late_reader([&] {
    gate.lock_shared();
    late_reader_entered.store(true);
    gate.unlock_shared();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(late_reader_entered.load())
      << "a new reader entered past a pending writer";

  gate.unlock_shared();  // A leaves; the writer (not the reader) is next
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return writer_done; });
  }
  late_reader.join();
  writer.join();
  EXPECT_TRUE(late_reader_entered.load());

  // try_lock on a free gate works and excludes readers.
  ASSERT_TRUE(gate.try_lock());
  EXPECT_FALSE(gate.try_lock_shared());
  gate.unlock();
}

/// The regression the gate exists for (TSan-checked via the concurrency
/// label): ApplyDelta keeps making progress while reader threads
/// saturate the epoch gate with back-to-back serving calls.
TEST(SessionTest, ApplyDeltaProgressesUnderSaturatedReadLoad) {
  Database db;
  for (int i = 0; i < 16; ++i) {
    std::string a = "a" + std::to_string(i);
    std::string b = "b" + std::to_string(i);
    ASSERT_TRUE(db.AddFact(F("R", {a, b}, 1)).ok());
    ASSERT_TRUE(db.AddFact(F("S", {b, "c"}, 1)).ok());
  }
  Session::Options options;
  options.num_threads = 2;
  Session session(std::move(db), options);
  Query q = MustParseQuery("R(x | y), S(y | z)");

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        ASSERT_TRUE(testutil::SessionSolve(session, q).ok());
      }
    });
  }

  // Every delta must land; with the old reader-preferring lock this
  // loop could stall arbitrarily under the reader storm above.
  constexpr int kDeltas = 50;
  for (int i = 0; i < kDeltas; ++i) {
    Delta delta;
    delta.ReplaceBlock(InternSymbol("R"), {InternSymbol("a0")},
                       {F("R", {"a0", i % 2 == 0 ? "b0" : "elsewhere"}, 1)});
    ASSERT_TRUE(session.ApplyDelta(delta).ok());
  }
  stop.store(true);
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(session.epoch(), static_cast<uint64_t>(kDeltas));
  EXPECT_EQ(session.stats().deltas_applied, static_cast<uint64_t>(kDeltas));
}

}  // namespace
}  // namespace cqa
