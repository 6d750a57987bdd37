#ifndef CQA_CQA_H_
#define CQA_CQA_H_

/// \file
/// Umbrella header for the cqa library — certain conjunctive query
/// answering over uncertain (primary-key-violating) databases, after
/// Wijsen, "Charting the Tractability Frontier of Certain Conjunctive
/// Query Answering", PODS 2013.
///
/// Typical usage:
///
///   #include "cqa.h"
///   auto db = cqa::ParseDatabase(text).value();
///   auto q  = cqa::ParseQuery("C(x, y, 'Rome'), R(x, 'A')", db.schema());
///   auto cls = cqa::ClassifyQuery(*q);          // Theorems 1-4.
///   auto plan = cqa::QueryPlan::Compile(*q).value();   // thread-safe
///   auto out = plan->Solve(db);                 // one decision
///
/// For serving, everything goes through the one front door — a
/// versioned `Service` owning named databases, prepared-query handles
/// and paginated answer streams:
///
///   cqa::Service service;
///   service.CreateDatabase("main", std::move(db)).ok();
///   auto handle = service.Prepare(*q).value();       // deduped, pinned
///   cqa::Service::SolveRequest req;
///   req.database = "main";
///   req.prepared = handle;
///   auto out = service.Solve(req);                   // versioned request
///   // deltas: Service::DeltaRequest -> ApplyDelta -> epoch + 1
///
/// With `Service::Options::durability.dir` set, databases are durable:
/// deltas hit a per-database write-ahead log before they apply, the log
/// compacts into checksummed snapshots, and `OpenStore` recovers a
/// database after a crash (see store/store.h). A `Session` can still be
/// built directly; it serves compiled `QueryPlan`s only.
///
/// The whole Service API also travels over TCP: `net::Server` speaks
/// the length-prefixed, CRC-framed binary protocol of docs/PROTOCOL.md
/// (with admission control and a Prometheus-style metrics export), and
/// `net::Client` is the matching blocking client — see net/server.h,
/// net/client.h and examples/wire_server.cpp / wire_client.cpp.

#include "backend/backend.h"
#include "core/attack_graph.h"
#include "core/classifier.h"
#include "core/dot_export.h"
#include "cq/canonicalize.h"
#include "cq/corpus.h"
#include "cq/join_tree.h"
#include "cq/matcher.h"
#include "cq/parser.h"
#include "cq/query.h"
#include "db/database.h"
#include "db/parser.h"
#include "db/printer.h"
#include "db/purify.h"
#include "db/repairs.h"
#include "db/sampling.h"
#include "fd/fd.h"
#include "fo/evaluator.h"
#include "fo/program.h"
#include "fo/rewriter.h"
#include "fo/sql_lower.h"
#include "gen/db_gen.h"
#include "gen/instance_gen.h"
#include "gen/query_gen.h"
#include "net/client.h"
#include "net/codec.h"
#include "net/metrics.h"
#include "net/server.h"
#include "net/wire.h"
#include "plan/plan_cache.h"
#include "plan/query_plan.h"
#include "prob/bid.h"
#include "serve/service.h"
#include "serve/session.h"
#include "store/io.h"
#include "store/record.h"
#include "store/snapshot.h"
#include "store/store.h"
#include "store/wal.h"
#include "prob/counting.h"
#include "prob/is_safe.h"
#include "prob/safe_plan.h"
#include "prob/worlds.h"
#include "solvers/ack_solver.h"
#include "solvers/ck_solver.h"
#include "solvers/conp_reduction.h"
#include "solvers/fo_solver.h"
#include "solvers/oracle_solver.h"
#include "solvers/sat_solver.h"
#include "solvers/solver.h"
#include "solvers/terminal_cycle_solver.h"
#include "solvers/two_atom_solver.h"
#include "util/thread_pool.h"

#endif  // CQA_CQA_H_
