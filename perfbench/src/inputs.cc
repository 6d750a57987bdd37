#include "inputs.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <unordered_set>

#include "common.h"
#include "cq/corpus.h"
#include "cq/matcher.h"
#include "cq/parser.h"
#include "gen/db_gen.h"
#include "gen/instance_gen.h"
#include "plan/query_plan.h"

namespace perfbench {

using cqa::Database;
using cqa::Delta;
using cqa::Fact;
using cqa::InternSymbol;
using cqa::Query;
using cqa::Rng;
using cqa::SymbolId;

namespace {

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: input generation failed: %s\n",
               what.c_str());
  std::exit(2);
}

std::string Name(const std::string& prefix, int i) {
  return prefix + std::to_string(i);
}

/// Copies the facts of `from` into `into` with relations renamed.
void AddRenamed(const Database& from,
                const std::map<std::string, std::string>& renames,
                Database* into) {
  for (const Fact& f : from.facts()) {
    std::string relation = cqa::SymbolName(f.relation());
    auto it = renames.find(relation);
    if (it != renames.end()) relation = it->second;
    MustAdd(into, Fact(InternSymbol(relation), f.values(), f.key_arity()));
  }
}

/// `q` with every relation renamed to its name plus `suffix`.
Query RenameRelations(const Query& q, const std::string& suffix) {
  std::vector<cqa::Atom> atoms;
  for (const cqa::Atom& atom : q.atoms()) {
    atoms.emplace_back(
        InternSymbol(cqa::SymbolName(atom.relation()) + suffix),
        atom.terms(), atom.key_arity());
  }
  return Query(std::move(atoms));
}

/// Adds one consistent embedding of the self-join-free `q`: each atom
/// becomes a fact whose variables are fresh constants (`prefix` plus the
/// variable's name), alone in its block. Every repair keeps all of them,
/// so `q` is certain.
void AddConsistentEmbedding(const Query& q, const std::string& prefix,
                            Database* db) {
  for (const cqa::Atom& atom : q.atoms()) {
    std::vector<SymbolId> values;
    for (const cqa::Term& t : atom.terms()) {
      values.push_back(t.is_const()
                           ? t.id()
                           : InternSymbol(prefix + cqa::SymbolName(t.id())));
    }
    MustAdd(db, Fact(atom.relation(), values, atom.key_arity()));
  }
}

/// Adds one side of the frontier: `part` with its relations renamed by
/// `renames` for `q`, and a copy with every relation renamed once more
/// (suffix "Y") plus one consistent embedding for the certain twin of
/// `q`. Appends both queries to `out`.
void AddSide(const std::string& name, const Database& part,
             const std::map<std::string, std::string>& renames,
             const Query& q, cqa::SolverKind solver,
             std::optional<bool> by_construction, Database* db,
             std::vector<BoolQuery>* out) {
  std::map<std::string, std::string> twin;
  for (const Fact& f : part.facts()) {
    std::string relation = cqa::SymbolName(f.relation());
    auto it = renames.find(relation);
    twin[relation] = (it == renames.end() ? relation : it->second) + "Y";
  }
  AddRenamed(part, renames, db);
  AddRenamed(part, twin, db);
  Query twin_query = RenameRelations(q, "Y");
  AddConsistentEmbedding(twin_query, "cw_", db);
  out->push_back({name, q, solver, by_construction});
  out->push_back({name + " twin", twin_query, solver, true});
}

}  // namespace

void MustAdd(Database* db, const Fact& fact) {
  cqa::Status st = db->AddFact(fact);
  if (!st.ok()) Die(st.message());
}

void AddPinnedAnswers(const std::string& tag, int p_blocks, int toggled,
                      int per_delta, bool conflicts, Rng* rng, Database* db,
                      AnswerStream* out) {
  const std::string p = "P" + tag;
  const std::string q = "Q" + tag;
  const int y_keys = std::max(8, p_blocks / 4);
  // One Y key in eight has no Q-block: a P-fact pointing there is a
  // dead end, which is what makes some rows uncertain.
  auto live = [](int y) { return y % 8 != 7; };
  auto y_name = [&](int y) { return Name("y" + tag + "_", y); };
  for (int y = 0; y < y_keys; ++y) {
    if (!live(y)) continue;
    int z = static_cast<int>(rng->Below(8));
    MustAdd(db, Fact::Make(q, {y_name(y), Name("z" + tag + "_", z)}, 1));
    if (conflicts && y % 7 == 3) {
      MustAdd(db, Fact::Make(q, {y_name(y), Name("z" + tag + "_", z + 8)}, 1));
    }
  }
  auto random_live = [&]() {
    int y;
    do {
      y = static_cast<int>(rng->Below(y_keys));
    } while (!live(y));
    return y;
  };
  // Toggled blocks hold two live facts, so their row is certain; a delta
  // swaps the second for a dead end (uncertain) and the next pass swaps
  // it back. Block and fact counts never change along the stream.
  std::vector<int> order(p_blocks);
  for (int i = 0; i < p_blocks; ++i) order[i] = i;
  rng->Shuffle(&order);
  std::vector<bool> is_toggled(p_blocks, false);
  int chosen = 0;
  for (int i : order) {
    if (chosen == toggled) break;
    if (i % 7 == 3) continue;
    is_toggled[i] = true;
    ++chosen;
  }
  // Consecutive toggled blocks share a delta, `per_delta` at a time.
  std::vector<Delta> to_dead_end((toggled + per_delta - 1) / per_delta);
  std::vector<Delta> back(to_dead_end.size());
  int toggled_seen = 0;
  for (int i = 0; i < p_blocks; ++i) {
    std::string x = Name("x" + tag + "_", i);
    if (is_toggled[i]) {
      int y = random_live();
      int other;
      do {
        other = random_live();
      } while (other == y);
      int dead = (static_cast<int>(rng->Below(y_keys / 8)) * 8) | 7;
      Fact first = Fact::Make(p, {x, y_name(y)}, 1);
      Fact second = Fact::Make(p, {x, y_name(other)}, 1);
      MustAdd(db, first);
      MustAdd(db, second);
      size_t group = static_cast<size_t>(toggled_seen++ / per_delta);
      to_dead_end[group].ReplaceBlock(
          InternSymbol(p), {InternSymbol(x)},
          {first, Fact::Make(p, {x, y_name(dead)}, 1)});
      back[group].ReplaceBlock(InternSymbol(p), {InternSymbol(x)},
                               {first, second});
      continue;
    }
    int y = static_cast<int>(rng->Below(y_keys));
    MustAdd(db, Fact::Make(p, {x, y_name(y)}, 1));
    if (conflicts && i % 7 == 3) {
      int other = (y + 1 + static_cast<int>(rng->Below(y_keys - 1))) % y_keys;
      MustAdd(db, Fact::Make(p, {x, y_name(other)}, 1));
    }
  }
  if (chosen < toggled) Die("too few blocks to toggle");
  out->query = cqa::MustParseQuery(p + "(x | y), " + q + "(y | z)");
  out->free_vars = {InternSymbol("x")};
  out->deltas = std::move(to_dead_end);
  for (Delta& d : back) out->deltas.push_back(std::move(d));
}

void AddUnpinnedAnswers(int r_blocks, int s_blocks, Rng* rng, Database* db,
                        AnswerStream* out) {
  auto s_live = [](int s) { return s % 16 != 15; };
  // Two live single-fact S-blocks take turns: `a` starts present and `b`
  // absent, and each delta deletes the present one and restores the
  // other, so every delta does the same work, under every seed.
  auto single = [&](int s) { return s_live(s) && s % 7 != 3; };
  int a;
  int b;
  do {
    a = static_cast<int>(rng->Below(s_blocks));
    b = static_cast<int>(rng->Below(s_blocks));
  } while (a == b || !single(a) || !single(b));
  std::vector<Fact> block_a;
  std::vector<Fact> block_b;
  for (int s = 0; s < s_blocks; ++s) {
    if (!s_live(s)) continue;
    std::string key = Name("s", s);
    int z = static_cast<int>(rng->Below(16));
    std::vector<Fact> block = {Fact::Make("S", {key, Name("w", z)}, 1)};
    if (s % 7 == 3) {
      block.push_back(Fact::Make("S", {key, Name("w", z + 16)}, 1));
    }
    if (s == b) {
      block_b = block;
      continue;
    }
    for (const Fact& f : block) MustAdd(db, f);
    if (s == a) block_a = block;
  }
  for (int r = 0; r < r_blocks; ++r) {
    std::string key = Name("r", r);
    int s = static_cast<int>(rng->Below(s_blocks));
    MustAdd(db, Fact::Make("R", {key, Name("s", s)}, 1));
    if (r % 7 == 3) {
      int other = (s + 1 + static_cast<int>(rng->Below(s_blocks - 1))) %
                  s_blocks;
      MustAdd(db, Fact::Make("R", {key, Name("s", other)}, 1));
    }
  }
  SymbolId s_rel = InternSymbol("S");
  SymbolId key_a = InternSymbol(Name("s", a));
  SymbolId key_b = InternSymbol(Name("s", b));
  Delta to_b;
  to_b.ReplaceBlock(s_rel, {key_a}, {});
  to_b.ReplaceBlock(s_rel, {key_b}, block_b);
  Delta to_a;
  to_a.ReplaceBlock(s_rel, {key_b}, {});
  to_a.ReplaceBlock(s_rel, {key_a}, block_a);
  out->query = cqa::MustParseQuery("R(x | y), S(y | z)");
  out->free_vars = {InternSymbol("x")};
  out->deltas = {to_b, to_a};
}

std::vector<BoolQuery> AddBooleanScan(const std::string& a,
                                      const std::string& b, int blocks,
                                      bool conflicts, Rng* rng,
                                      Database* db) {
  const int v_keys = std::max(4, blocks / 4);
  auto v_name = [&](int v) { return Name(a + "v", v); };
  // v0 is the witness's target; every other <b>-block holds 'maybe',
  // and with conflicts as many also hold 'yes' as hold 'no', so the scan
  // and its twin do the same work per block.
  MustAdd(db, Fact::Make(b, {v_name(0), "no"}, 1));
  for (int v = 1; v < v_keys; ++v) {
    MustAdd(db, Fact::Make(b, {v_name(v), "maybe"}, 1));
    if (conflicts && v % 3 != 0) {
      MustAdd(db, Fact::Make(b, {v_name(v), v % 3 == 1 ? "yes" : "no"}, 1));
    }
  }
  for (int u = 0; u < blocks - 1; ++u) {
    std::string key = Name(a + "u", u);
    int v = 1 + static_cast<int>(rng->Below(v_keys - 1));
    MustAdd(db, Fact::Make(a, {key, v_name(v)}, 1));
    if (conflicts && u % 7 == 3) {
      MustAdd(db, Fact::Make(a, {key, v_name(1 + v % (v_keys - 1))}, 1));
    }
  }
  MustAdd(db, Fact::Make(a, {Name(a + "u", blocks - 1), v_name(0)}, 1));
  const cqa::SolverKind fo = cqa::SolverKind::kFoRewriting;
  return {
      {a + " scan", cqa::MustParseQuery(a + "(u | v), " + b + "(v | 'yes')"),
       fo, false},
      {a + " scan twin",
       cqa::MustParseQuery(a + "(u | v), " + b + "(v | 'no')"), fo, true},
  };
}

std::vector<BoolQuery> AddFrontier(int fo_blocks, int cycle_blocks,
                                   int layer_size, Rng* rng, Database* db) {
  // The FO part is consistent: every conflicting block anywhere in the
  // database costs the SAT side one decision (its encoding covers the
  // whole database), and this part is the bulk of it.
  std::vector<BoolQuery> out =
      AddBooleanScan("FA", "FB", fo_blocks, false, rng, db);

  // Fig. 4's three weak terminal 2-cycles (corpus::Fig4Query).
  Query cycles_query = cqa::MustParseQuery(
      "T1(x, u1 | u2, z), T2(x, u2 | u1, z), T3(x, y, u3 | u4), "
      "T4(x, y, u4 | u3), T5(y, u5 | u6), T6(y, u6 | u5)");
  cqa::BlockDbGenOptions cycles;
  cycles.blocks_per_relation = cycle_blocks;
  cycles.max_block_size = 2;
  cycles.domain_size = 5;
  cycles.seed = rng->Next();
  AddSide("terminal cycles", cqa::RandomBlockDatabase(cycles_query, cycles),
          {}, cycles_query, cqa::SolverKind::kTerminalCycles, std::nullopt,
          db, &out);

  cqa::AckInstanceOptions ack;
  ack.k = 3;
  ack.layer_size = layer_size;
  ack.s_tuples = 2 * layer_size;
  ack.noise_edges = 2 * layer_size;
  ack.seed = rng->Next();
  AddSide("AC(3)", cqa::RandomAckDatabase(ack),
          {{"R1", "A1"}, {"R2", "A2"}, {"R3", "A3"}, {"S3", "AS3"}},
          cqa::MustParseQuery(
              "A1(x1 | x2), A2(x2 | x3), A3(x3 | x1), AS3(x1, x2, x3 |)"),
          cqa::SolverKind::kAck, std::nullopt, db, &out);

  cqa::CkInstanceOptions ck;
  ck.k = 4;
  ck.layer_size = layer_size;
  ck.edges_per_vertex = 2;
  ck.seed = rng->Next();
  AddSide("C(4)", cqa::RandomCkDatabase(ck),
          {{"R1", "C1"}, {"R2", "C2"}, {"R3", "C3"}, {"R4", "C4"}},
          cqa::MustParseQuery(
              "C1(x1 | x2), C2(x2 | x3), C3(x3 | x4), C4(x4 | x1)"),
          cqa::SolverKind::kCk, std::nullopt, db, &out);

  // q0 with an escape fact R0(a, e_a) in every R0-block: choosing the
  // escapes gives a repair without an embedding, so the instance is
  // never certain and the SAT search must build a whole falsifying
  // repair instead of refuting by unit propagation.
  cqa::Q0InstanceOptions q0;
  q0.join_pairs = 5;
  q0.violations = 3;
  q0.domain_size = 6;
  q0.seed = rng->Next();
  Database q0db = cqa::RandomQ0Database(q0);
  std::set<SymbolId> r0_keys;
  for (const Database::Block& block : q0db.blocks()) {
    if (cqa::SymbolName(block.relation) == "R0") r0_keys.insert(block.key[0]);
  }
  for (SymbolId a : r0_keys) {
    std::string key = cqa::SymbolName(a);
    MustAdd(&q0db, Fact::Make("R0", {key, "esc_" + key}, 1));
  }
  AddSide("q0", q0db, {}, cqa::corpus::Q0(), cqa::SolverKind::kSat, false,
          db, &out);
  return out;
}

void ComputeExpected(const Database& db, AnswerStream* out) {
  using Row = std::vector<SymbolId>;
  auto plan_or = cqa::QueryPlan::Compile(out->query, out->free_vars);
  if (!plan_or.ok()) Die(plan_or.status().message());
  const cqa::QueryPlan& plan = **plan_or;
  // The answers of one database state, row by row.
  auto decide_all = [&](const Database& state) {
    cqa::EvalContext ctx(state);
    std::vector<Row> candidates = cqa::CollectProjectionsSorted(
        ctx.fact_index(), out->query, cqa::Valuation(), out->free_vars);
    std::set<Row> certain;
    for (const Row& row : candidates) {
      cqa::Result<bool> yes = plan.IsCertainRow(ctx, row);
      if (!yes.ok()) Die(yes.status().message());
      if (*yes) certain.insert(row);
    }
    return certain;
  };
  auto page = [&](const std::set<Row>& rows, size_t first) {
    cqa::Session::RowSet set;
    size_t i = 0;
    for (const Row& row : rows) {
      if (i >= first && i < first + out->page_size) set.push_back(row);
      if (++i >= first + out->page_size) break;
    }
    return RowsFingerprint(set, 0, set.size());
  };
  auto record = [&](const std::set<Row>& rows) {
    AnswerStream::Expected e;
    e.total = rows.size();
    e.page0 = page(rows, 0);
    e.page1 = page(rows, out->page_size);
    out->expected.push_back(e);
  };
  if (out->deltas.empty()) {
    record(decide_all(db));
    return;
  }
  // Model of the delta stream: one period applied to a plain copy. Keep
  // the initial state and the state half a period in.
  Database model = db;
  std::vector<Database> kept;
  const size_t half = std::max<size_t>(1, out->deltas.size() / 2);
  for (size_t k = 0; k < out->deltas.size(); ++k) {
    if (k == 0 || k == half) kept.push_back(model);
    cqa::Status st = cqa::ApplyDeltaToDatabase(out->deltas[k], &model);
    if (!st.ok()) Die("delta model: " + st.message());
  }
  if (model.ToString() != db.ToString()) {
    Die("delta stream does not return to the initial database");
  }
  if (out->deltas.size() == 2) {
    record(decide_all(kept[0]));
    record(decide_all(kept[1]));
    return;
  }
  // Pinned stream of period 2M: delta k < M flips its blocks, delta
  // M + k restores them. Row x depends on block x alone (the free
  // variable is its key), so its status in either version decides every
  // phase.
  const std::set<Row> base = decide_all(kept[0]);
  const std::set<Row> flipped_all = decide_all(kept[1]);
  std::set<Row> current = base;
  record(current);
  for (size_t k = 0; k + 1 < out->deltas.size(); ++k) {
    const std::set<Row>& source = k < half ? flipped_all : base;
    for (const Delta::Op& op : out->deltas[k].ops()) {
      Row row = {op.key[0]};
      if (source.count(row)) {
        current.insert(row);
      } else {
        current.erase(row);
      }
    }
    record(current);
  }
}

void FillVerdicts(const Database& db, std::vector<BoolQuery>* queries) {
  for (BoolQuery& q : *queries) {
    q.certain = ExpectedVerdict(q.query, db);
    if (q.by_construction.has_value() && *q.by_construction != q.certain) {
      Die(q.name + " was built to be " +
          (*q.by_construction ? "certain" : "not certain"));
    }
  }
}

bool ExpectedVerdict(const Query& q, const Database& db) {
  auto plan = cqa::QueryPlan::CompileForcedSolver(q, cqa::SolverKind::kSat);
  if (!plan.ok()) Die(plan.status().message());
  // Certainty of q depends only on the relations q mentions; the SAT
  // encoding covers every block it is given, so give it only those.
  std::unordered_set<SymbolId> relations;
  for (const cqa::Atom& atom : q.atoms()) relations.insert(atom.relation());
  auto out = (*plan)->Solve(db.Restrict(relations));
  if (!out.ok()) Die(out.status().message());
  return out->certain;
}

}  // namespace perfbench
