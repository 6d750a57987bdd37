#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cq/corpus.h"
#include "cq/parser.h"
#include "db/database.h"
#include "db/parser.h"
#include "db/printer.h"
#include "db/purify.h"
#include "db/repairs.h"
#include "util/rng.h"

namespace cqa {
namespace {

TEST(FactTest, KeyEquality) {
  Fact a = Fact::Make("R", {"a", "b"}, 1);
  Fact b = Fact::Make("R", {"a", "c"}, 1);
  Fact c = Fact::Make("R", {"x", "b"}, 1);
  EXPECT_TRUE(a.KeyEqual(b));
  EXPECT_FALSE(a.KeyEqual(c));
  EXPECT_TRUE(a.KeyEqual(a));
  EXPECT_NE(a, b);
}

TEST(FactTest, ToStringMarksKey) {
  EXPECT_EQ(Fact::Make("R", {"a", "b", "c"}, 2).ToString(), "R(a, b | c)");
  EXPECT_EQ(Fact::Make("S", {"a", "b"}, 2).ToString(), "S(a, b)");
}

TEST(SchemaTest, RejectsBadSignatures) {
  Schema s;
  EXPECT_FALSE(s.AddRelation("R", 2, 3).ok());
  EXPECT_TRUE(s.AddRelation("R", 3, 2).ok());
  EXPECT_TRUE(s.AddRelation("R", 3, 2).ok());   // Identical re-declaration.
  EXPECT_FALSE(s.AddRelation("R", 3, 1).ok());  // Conflicting.
}

TEST(DatabaseTest, BlocksGroupKeyEqualFacts) {
  Database db = corpus::ConferenceDatabase();
  EXPECT_EQ(db.size(), 6);
  ASSERT_EQ(db.blocks().size(), 4u);  // Fig. 1: 4 blocks.
  EXPECT_EQ(db.RepairCount().ToInt64(), 4);  // "The database has 4 repairs."
  EXPECT_FALSE(db.IsConsistent());
}

TEST(DatabaseTest, DuplicateInsertIsIdempotent) {
  Database db;
  ASSERT_TRUE(db.AddFact(Fact::Make("R", {"a", "b"}, 1)).ok());
  ASSERT_TRUE(db.AddFact(Fact::Make("R", {"a", "b"}, 1)).ok());
  EXPECT_EQ(db.size(), 1);
}

TEST(DatabaseTest, SignatureConflictRejected) {
  Database db;
  ASSERT_TRUE(db.AddFact(Fact::Make("R", {"a", "b"}, 1)).ok());
  EXPECT_FALSE(db.AddFact(Fact::Make("R", {"a", "b", "c"}, 1)).ok());
}

TEST(DatabaseTest, ActiveDomain) {
  Database db;
  ASSERT_TRUE(db.AddFact(Fact::Make("R", {"a", "b"}, 1)).ok());
  ASSERT_TRUE(db.AddFact(Fact::Make("S", {"b", "c"}, 1)).ok());
  EXPECT_EQ(db.ActiveDomain().size(), 3u);
}

TEST(DatabaseTest, RestrictKeepsTheNamedRelationsInTheirOrder) {
  Database db;
  for (int i = 0; i < 12; ++i) {
    std::string n = std::to_string(i);
    const char* relation = i % 3 == 0 ? "A" : i % 3 == 1 ? "B" : "C";
    ASSERT_TRUE(db.AddFact(Fact::Make(relation, {"k" + n, "v"}, 1)).ok());
    // Every other fact shares its key with the previous one: conflicts.
    ASSERT_TRUE(db.AddFact(Fact::Make(relation, {"k" + n, "w" + n}, 1)).ok());
  }
  // RemoveFact moves the last fact into the hole, so each relation's id
  // list no longer follows facts().
  ASSERT_TRUE(db.RemoveFact(Fact::Make("A", {"k0", "v"}, 1)).ok());
  ASSERT_TRUE(db.RemoveFact(Fact::Make("C", {"k2", "v"}, 1)).ok());
  std::vector<Fact> expected;
  for (const Fact& f : db.facts()) {
    if (SymbolName(f.relation()) != "B") expected.push_back(f);
  }
  Database restricted =
      db.Restrict({InternSymbol("A"), InternSymbol("C"), InternSymbol("Z")});
  EXPECT_EQ(std::vector<Fact>(restricted.facts().begin(),
                              restricted.facts().end()),
            expected);
  EXPECT_TRUE(db.Restrict({}).empty());
}

// ------------------------------------------- Database against a model

/// The model: a plain set of facts. Blocks are its (relation, key)
/// groups.
using Model = std::set<Fact>;
using BlockKey = std::pair<SymbolId, std::vector<SymbolId>>;

std::map<BlockKey, std::set<Fact>> ModelBlocks(const Model& model) {
  std::map<BlockKey, std::set<Fact>> out;
  for (const Fact& f : model) out[{f.relation(), f.KeyValues()}].insert(f);
  return out;
}

/// Every lookup of `f`, stored at `id`, agrees; so do the lookups of an
/// equal fact stored elsewhere.
void ExpectLive(const Database& db, const Fact& f, int id) {
  ASSERT_TRUE(db.Contains(f)) << f.ToString();
  ASSERT_EQ(db.FactId(f), id) << f.ToString();
  ASSERT_EQ(db.facts()[id], f);
  Fact stranger = f;
  ASSERT_EQ(db.FactId(stranger), id) << f.ToString();
  int b = db.BlockIdOf(f);
  ASSERT_GE(b, 0) << f.ToString();
  ASSERT_LT(b, static_cast<int>(db.blocks().size()));
  const Database::Block& block = db.blocks()[b];
  ASSERT_EQ(&db.BlockOf(f), &block) << f.ToString();
  ASSERT_EQ(db.FindBlock(f.relation(), f.KeyValues()), &block);
  ASSERT_EQ(block.relation, f.relation());
  ASSERT_EQ(block.key, f.KeyValues());
  ASSERT_EQ(std::count(block.fact_ids.begin(), block.fact_ids.end(), id), 1)
      << f.ToString();
}

/// `f` is absent; its block is absent too unless the model holds a fact
/// of it.
void ExpectAbsent(const Database& db, const Model& model, const Fact& f) {
  ASSERT_FALSE(db.Contains(f)) << f.ToString();
  ASSERT_EQ(db.FactId(f), -1) << f.ToString();
  // Facts order by relation, then values, so a block's facts follow its
  // key alone.
  auto first = model.lower_bound(Fact(f.relation(), f.KeyValues(), f.key_arity()));
  const bool block_live = first != model.end() && first->KeyEqual(f);
  ASSERT_EQ(db.BlockIdOf(f) >= 0, block_live) << f.ToString();
  ASSERT_EQ(db.FindBlock(f.relation(), f.KeyValues()) != nullptr,
            block_live)
      << f.ToString();
}

/// The whole database against the model: the same facts, every lookup
/// of each, and blocks() partitioning the ids with one block per
/// (relation, key) group of the model.
void ExpectMatches(const Database& db, const Model& model) {
  ASSERT_EQ(db.size(), static_cast<int>(model.size()));
  std::map<SymbolId, std::vector<int>> by_relation;
  for (int i = 0; i < db.size(); ++i) {
    const Fact& f = db.facts()[i];
    ASSERT_EQ(model.count(f), 1u) << f.ToString();
    ASSERT_NO_FATAL_FAILURE(ExpectLive(db, f, i));
    by_relation[f.relation()].push_back(i);
  }
  std::map<BlockKey, std::set<Fact>> expected = ModelBlocks(model);
  ASSERT_EQ(db.blocks().size(), expected.size());
  std::vector<int> owner(db.size(), -1);
  for (size_t b = 0; b < db.blocks().size(); ++b) {
    const Database::Block& block = db.blocks()[b];
    auto it = expected.find({block.relation, block.key});
    ASSERT_NE(it, expected.end());
    ASSERT_EQ(block.fact_ids.size(), it->second.size());
    for (int id : block.fact_ids) {
      ASSERT_GE(id, 0);
      ASSERT_LT(id, db.size());
      ASSERT_EQ(owner[id], -1) << "fact " << id << " in two blocks";
      owner[id] = static_cast<int>(b);
      ASSERT_EQ(it->second.count(db.facts()[id]), 1u);
    }
  }
  for (const auto& [relation, ids] : by_relation) {
    std::vector<int> of = db.FactsOf(relation);
    std::sort(of.begin(), of.end());
    ASSERT_EQ(of, ids);
  }
}

/// Random AddFact (duplicates and signature clashes included) and
/// RemoveFact (absent facts, removals that empty a block or relocate
/// the last fact) against a plain set, with copies, assignments,
/// Restrict and Subset mid-stream. Few keys and a wide non-key domain
/// let a block hold dozens of facts while the live facts swing between
/// a handful and thousands, so both tables grow many times and deletions
/// shift probe runs back across the end of the slot array. Each step
/// checks the facts it touched, the relocated fact and a few random
/// live ones; the whole database is compared every 128 steps and after
/// every copy, assignment, Restrict and Subset.
TEST(DatabaseTest, MatchesASetOfFactsUnderRandomOperations) {
  constexpr int kSteps = 120000;
  std::vector<SymbolId> keys;
  for (int i = 0; i < 6; ++i) keys.push_back(InternSymbol("k" + std::to_string(i)));
  std::vector<SymbolId> values;
  for (int i = 0; i < 600; ++i) values.push_back(InternSymbol("v" + std::to_string(i)));
  const SymbolId r = InternSymbol("DiffR");  // R(key | value)
  const SymbolId s = InternSymbol("DiffS");  // S(key, key | value)
  Rng rng(20261019);
  auto random_fact = [&]() -> Fact {
    SymbolId v = values[rng.Below(values.size())];
    if (rng.Chance(2, 3)) {
      return Fact(r, {keys[rng.Below(keys.size())], v}, 1);
    }
    return Fact(s, {keys[rng.Below(3)], keys[rng.Below(3)], v}, 2);
  };

  Database db;
  Model model;
  Database snapshot;
  Model snapshot_model;
  int grew_to = 0;
  int emptied_blocks = 0;
  int relocations = 0;
  for (int step = 0; step < kSteps; ++step) {
    // Alternate phases that mostly add and mostly remove.
    const bool growing = (step / 15000) % 2 == 0;
    const uint64_t kind = rng.Below(100);
    if (kind < (growing ? 70u : 30u)) {
      Fact f = random_fact();
      ASSERT_TRUE(db.AddFact(f).ok());
      model.insert(f);
      ASSERT_NO_FATAL_FAILURE(ExpectLive(db, f, db.FactId(f)));
    } else if (kind < 97) {
      if (db.empty() || rng.Chance(1, 10)) {
        Fact f = random_fact();
        if (model.count(f) == 0) {
          ASSERT_EQ(db.RemoveFact(f).code(), StatusCode::kNotFound);
          ASSERT_NO_FATAL_FAILURE(ExpectAbsent(db, model, f));
        }
      } else {
        int id = static_cast<int>(rng.Below(db.size()));
        const bool last = id == db.size() - 1;
        const bool sole = db.BlockOf(db.facts()[id]).fact_ids.size() == 1;
        Fact f = db.facts()[id];
        // Half the removals pass the stored fact itself, which the
        // relocation overwrites.
        Status st = rng.Chance(1, 2) ? db.RemoveFact(db.facts()[id])
                                     : db.RemoveFact(f);
        ASSERT_TRUE(st.ok()) << st;
        ASSERT_EQ(model.erase(f), 1u);
        ASSERT_NO_FATAL_FAILURE(ExpectAbsent(db, model, f));
        if (!last) {
          ++relocations;
          ASSERT_NO_FATAL_FAILURE(ExpectLive(db, db.facts()[id], id));
        }
        if (sole) ++emptied_blocks;
      }
    } else {
      // A signature clash: rejected, nothing changes.
      Fact clash = rng.Chance(1, 2)
                       ? Fact(r, {keys[0], values[0], values[1]}, 1)
                       : Fact(s, {keys[0], keys[1]}, 1);
      ASSERT_FALSE(db.AddFact(clash).ok());
      ASSERT_EQ(db.size(), static_cast<int>(model.size()));
    }
    if (rng.Chance(1, 500)) {
      switch (rng.Below(4)) {
        case 0: {
          // Copy now; check the copy, and compare the previous copy
          // with the model it was taken at before assigning it back.
          ASSERT_NO_FATAL_FAILURE(ExpectMatches(snapshot, snapshot_model));
          if (rng.Chance(1, 2)) {
            db = snapshot;
            model = snapshot_model;
          }
          snapshot = db;
          snapshot_model = model;
          ASSERT_NO_FATAL_FAILURE(ExpectMatches(snapshot, snapshot_model));
          break;
        }
        case 1: {
          Database copy(db);
          ASSERT_NO_FATAL_FAILURE(ExpectMatches(copy, model));
          db = std::move(copy);
          break;
        }
        case 2: {
          SymbolId relation = rng.Chance(1, 2) ? r : s;
          Database restricted = db.Restrict({relation});
          Model kept;
          std::vector<Fact> order;
          for (const Fact& f : db.facts()) {
            if (f.relation() == relation) {
              kept.insert(f);
              order.push_back(f);
            }
          }
          ASSERT_EQ(std::vector<Fact>(restricted.facts().begin(),
                                      restricted.facts().end()),
                    order);
          ASSERT_NO_FATAL_FAILURE(ExpectMatches(restricted, kept));
          break;
        }
        default: {
          // Keep a random subset in a random order and continue the
          // stream on it: its tables were sized up front.
          std::vector<int> ids;
          for (int i = 0; i < db.size(); ++i) {
            if (rng.Chance(3, 4)) ids.push_back(i);
          }
          rng.Shuffle(&ids);
          Database subset = db.Subset(ids);
          Model kept;
          for (size_t k = 0; k < ids.size(); ++k) {
            ASSERT_EQ(subset.facts()[k], db.facts()[ids[k]]);
            kept.insert(db.facts()[ids[k]]);
          }
          ASSERT_NO_FATAL_FAILURE(ExpectMatches(subset, kept));
          db = std::move(subset);
          model = std::move(kept);
          break;
        }
      }
    }
    ASSERT_EQ(db.size(), static_cast<int>(model.size()));
    for (int i = 0; i < 4 && !db.empty(); ++i) {
      int id = static_cast<int>(rng.Below(db.size()));
      ASSERT_NO_FATAL_FAILURE(ExpectLive(db, db.facts()[id], id));
    }
    if (step % 128 == 0) {
      ASSERT_NO_FATAL_FAILURE(ExpectMatches(db, model)) << "step " << step;
    }
    grew_to = std::max(grew_to, db.size());
  }
  ASSERT_NO_FATAL_FAILURE(ExpectMatches(db, model));
  // Over 2,000 live facts: the fact table grew from 8 to 4,096 slots.
  EXPECT_GT(grew_to, 2000);
  EXPECT_GT(emptied_blocks, 100);
  EXPECT_GT(relocations, 10000);
}

TEST(RepairsTest, EnumeratesAllRepairs) {
  Database db = corpus::ConferenceDatabase();
  int count = 0;
  RepairEnumerator repairs(db);
  bool complete = repairs.ForEach([&](const Repair& r) {
    EXPECT_EQ(r.size(), 4u);  // One fact per block.
    ++count;
    return true;
  });
  EXPECT_TRUE(complete);
  EXPECT_EQ(count, 4);
}

TEST(RepairsTest, EmptyDatabaseHasOneEmptyRepair) {
  Database db;
  int count = 0;
  RepairEnumerator repairs(db);
  repairs.ForEach([&](const Repair& r) {
    EXPECT_TRUE(r.empty());
    ++count;
    return true;
  });
  EXPECT_EQ(count, 1);
}

TEST(RepairsTest, EarlyStopReportsIncomplete) {
  Database db = corpus::ConferenceDatabase();
  RepairEnumerator repairs(db);
  EXPECT_FALSE(repairs.ForEach([](const Repair&) { return false; }));
}

TEST(DbParserTest, ParsesDeclarationsAndFacts) {
  auto db = ParseDatabase(R"(
    # Fig. 1
    relation C[3,2].
    relation R[2,1].
    C(PODS, 2016, Rome).
    C(PODS, 2016, Paris).
    R(PODS, 'A').
  )");
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->size(), 3);
  EXPECT_EQ(db->blocks().size(), 2u);
}

TEST(DbParserTest, RejectsUndeclaredRelation) {
  EXPECT_FALSE(ParseDatabase("R(a, b).").ok());
}

TEST(DbParserTest, RejectsArityMismatch) {
  EXPECT_FALSE(ParseDatabase("relation R[2,1]. R(a).").ok());
}

TEST(DbPrinterTest, RoundTrips) {
  Database db = corpus::ConferenceDatabase();
  auto reparsed = ParseDatabase(FormatDatabase(db));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->ToString(), db.ToString());
}

TEST(PurifyTest, Example1FromThePaper) {
  // {R(a,b), S(b,a), S(b,c)} is not purified for {R(x,y), S(y,x)}:
  // no R-fact joins with S(b,c).
  Database db;
  ASSERT_TRUE(db.AddFact(Fact::Make("R", {"a", "b"}, 1)).ok());
  ASSERT_TRUE(db.AddFact(Fact::Make("S", {"b", "a"}, 1)).ok());
  ASSERT_TRUE(db.AddFact(Fact::Make("S", {"b", "c"}, 1)).ok());
  Query q = MustParseQuery("R(x | y), S(y | x)");
  EXPECT_FALSE(IsPurified(db, q));
  Database pure = Purify(db, q);
  // The whole S-block {S(b,a), S(b,c)} goes (the proof of Lemma 1
  // removes blocks), which then strands R(a,b) as well.
  EXPECT_TRUE(IsPurified(pure, q));
  EXPECT_EQ(pure.size(), 0);
}

TEST(PurifyTest, KeepsFullyRelevantDatabase) {
  Database db;
  ASSERT_TRUE(db.AddFact(Fact::Make("R", {"a", "b"}, 1)).ok());
  ASSERT_TRUE(db.AddFact(Fact::Make("S", {"b", "a"}, 1)).ok());
  Query q = MustParseQuery("R(x | y), S(y | x)");
  EXPECT_TRUE(IsPurified(db, q));
  EXPECT_EQ(Purify(db, q).size(), 2);
}

TEST(PurifyTest, RemovesForeignRelations) {
  Database db;
  ASSERT_TRUE(db.AddFact(Fact::Make("R", {"a", "b"}, 1)).ok());
  ASSERT_TRUE(db.AddFact(Fact::Make("S", {"b", "a"}, 1)).ok());
  ASSERT_TRUE(db.AddFact(Fact::Make("T", {"z"}, 1)).ok());
  Query q = MustParseQuery("R(x | y), S(y | x)");
  Database pure = Purify(db, q);
  EXPECT_EQ(pure.size(), 2);
}

TEST(PurifyTest, WitnessesLiftRepairs) {
  // Purify with witnesses: appending the witnesses to a repair of the
  // purified db yields a repair of the original db.
  Database db;
  ASSERT_TRUE(db.AddFact(Fact::Make("R", {"a", "b"}, 1)).ok());
  ASSERT_TRUE(db.AddFact(Fact::Make("S", {"b", "a"}, 1)).ok());
  ASSERT_TRUE(db.AddFact(Fact::Make("S", {"c", "c"}, 1)).ok());
  Query q = MustParseQuery("R(x | y), S(y | x)");
  std::vector<Fact> witnesses;
  Database pure = Purify(db, q, &witnesses);
  EXPECT_EQ(pure.size(), 2);
  ASSERT_EQ(witnesses.size(), 1u);
  EXPECT_EQ(witnesses[0], Fact::Make("S", {"c", "c"}, 1));
  EXPECT_EQ(pure.blocks().size() + witnesses.size(), db.blocks().size());
}

TEST(PurifyTest, PreservesCertaintyOnConferenceExample) {
  Database db = corpus::ConferenceDatabase();
  Query q = corpus::ConferenceQuery();
  Database pure = Purify(db, q);
  // Lemma 1: purification preserves CERTAINTY membership. (Both sides
  // computed exhaustively in oracle tests; here: structure sanity.)
  EXPECT_TRUE(IsPurified(pure, q));
  EXPECT_LE(pure.size(), db.size());
}

}  // namespace
}  // namespace cqa
