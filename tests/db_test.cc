#include <gtest/gtest.h>

#include "cq/corpus.h"
#include "cq/parser.h"
#include "db/database.h"
#include "db/parser.h"
#include "db/printer.h"
#include "db/purify.h"
#include "db/repairs.h"

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
