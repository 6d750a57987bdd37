// delta_durable: writes beside reads on a durable tenant. In process,
// durability on: WAL sync policy kInterval at its default 64 KiB
// interval, snapshot compaction once the WAL exceeds 256 KiB. One writer
// applies a small delta to a P-block whose key the free variable pins
// and reads the first page back, so every page re-decides exactly the
// one row the delta touched. Two readers run a Boolean scan and its
// certain twin over relations the deltas do not touch, holding the epoch
// gate shared while the writer waits for it. Set-up recovers the tenant from a pre-written
// WAL through Service::OpenStore. A write-path gain that makes readers
// wait longer, or the reverse, shows here and nowhere else.
//
// The readers do not page the answer set themselves: a page at an epoch
// someone already served is a cache hit (tens of microseconds), one after
// a delta re-decides a row (hundreds), and concurrent readers split the
// pages between the two in a proportion the scheduler picks, so their
// median would sit on the boundary between two costs.

#include <cstdio>
#include <filesystem>
#include <memory>
#include <set>
#include <unistd.h>

#include "cq/matcher.h"
#include "inputs.h"
#include "net/codec.h"
#include "plan/query_plan.h"
#include "serve/service.h"
#include "store/store.h"
#include "workloads.h"

namespace perfbench {
namespace {

using cqa::Database;
using cqa::Service;
namespace fs = std::filesystem;

constexpr const char* kName = "delta_durable";
constexpr const char* kDb = "durable";
constexpr int kWorkers = 3;
constexpr int kReaders = 2;
constexpr int kPBlocks = 1024;
constexpr int kToggled = 128;
constexpr int kScanBlocks = 1024;
constexpr int kPrewritten = 2000;  // deltas in the WAL set-up recovers
constexpr int kSetups = 15;

struct Inputs {
  Database db;
  AnswerStream answers;
  std::vector<BoolQuery> scan;  // the scan and its certain twin
};

Inputs MakeInputs(uint64_t seed) {
  Inputs in;
  cqa::Rng rng(seed * 0x9e3779b97f4a7c15ull + 13);
  AddPinnedAnswers("D", kPBlocks, kToggled, 1, true, &rng, &in.db, &in.answers);
  in.scan = AddBooleanScan("DA", "DB", kScanBlocks, true, &rng, &in.db);
  ComputeExpected(in.db, &in.answers);
  FillVerdicts(in.db, &in.scan);
  return in;
}

Service::Options ServiceOptions(const std::string& root) {
  Service::Options options;
  options.num_threads = kWorkers;
  options.durability.dir = root;
  // The sync settings are the defaults, stated explicitly: the flush
  // policy must read the same on both sides of any comparison.
  options.durability.wal.policy = cqa::store::Wal::SyncPolicy::kInterval;
  options.durability.wal.sync_interval_bytes = 64 * 1024;
  // 256 KiB rather than the 4 MiB default, so that a run of this
  // workload compacts several times.
  options.durability.compaction_threshold_bytes = 256 * 1024;
  return options;
}

/// Writes the tenant the set-ups recover: a snapshot of the initial
/// database plus `kPrewritten` deltas of the stream in its WAL. Uses
/// the store layer directly, so no thread runs while inputs are built.
void PrewriteStore(const Inputs& in, const std::string& root) {
  fs::create_directories(root);
  cqa::store::DbStore::Options options;
  options.wal = ServiceOptions(root).durability.wal;
  options.compaction_threshold_bytes = 0;
  auto store = cqa::store::DbStore::Create(
      cqa::store::Env::Default(), cqa::store::JoinPath(root, kDb), in.db, 0,
      options);
  if (!store.ok()) {
    std::fprintf(stderr, "perfbench: prewrite: %s\n",
                 store.status().message().c_str());
    std::exit(2);
  }
  for (int k = 0; k < kPrewritten; ++k) {
    cqa::Status st = (*store)->AppendDelta(
        in.answers.deltas[k % in.answers.period()], k + 1);
    if (!st.ok()) std::exit(2);
  }
}

struct Fixture {
  std::unique_ptr<Service> service;
  cqa::PreparedQueryHandle answers;
  std::vector<Service::SolveRequest> scan;  // the scan, then its twin
  double recover_s = 0;
};

bool SetUp(const Inputs& in, const std::string& root, Fixture* fx,
           Ledger* ledger) {
  fx->service = std::make_unique<Service>(ServiceOptions(root));
  Clock::time_point t = Clock::now();
  auto opened = fx->service->OpenStore(kDb);
  fx->recover_s = SecondsSince(t);
  if (!opened.ok()) {
    ledger->Fail("open: " + opened.status().message());
    return false;
  }
  if (opened->replayed != kPrewritten) {
    ledger->Mismatch("replayed delta count");
    return false;
  }
  auto answers = fx->service->Prepare(in.answers.query, in.answers.free_vars);
  if (!answers.ok()) return ledger->Fail("prepare");
  fx->answers = *answers;
  for (const BoolQuery& q : in.scan) {
    auto handle = fx->service->Prepare(q.query);
    if (!handle.ok()) return ledger->Fail("prepare " + q.name);
    fx->scan.emplace_back();
    fx->scan.back().database = kDb;
    fx->scan.back().prepared = *handle;
  }
  Service::CertainAnswersRequest page;
  page.database = kDb;
  page.prepared = fx->answers;
  page.page_size = in.answers.page_size;
  auto first = fx->service->CertainAnswers(page);
  if (!first.ok()) return ledger->Fail("warm-up page");
  const AnswerStream::Expected& want = in.answers.At(first->epoch, 0);
  if (first->total_rows != want.total ||
      RowsFingerprint(first->rows, 0, first->rows.size()) != want.page0) {
    return ledger->Mismatch("recovered answers");
  }
  return true;
}

/// The writer's step. Deltas follow the stream in epoch order, so the
/// one writer reads its position off the epoch it last committed.
void WriteStep(const Inputs& in, Fixture* fx, uint64_t* epoch, Samples* lat,
               uint64_t* completed, Ledger* ledger, Tracer* tracer) {
  Service::DeltaRequest req;
  req.database = kDb;
  req.delta = in.answers.deltas[*epoch % in.answers.period()];
  ++ledger->attempted;
  Clock::time_point t = Clock::now();
  cqa::Result<Service::DeltaResponse> r = [&] {
    ScopedSpan span(tracer, "serve.apply_delta");
    return fx->service->ApplyDelta(req);
  }();
  double us = MicrosSince(t);
  if (!r.ok()) {
    ledger->Fail("delta: " + r.status().message());
  } else if (r->epoch != *epoch + 1) {
    ledger->Mismatch("delta epoch");
  } else {
    *epoch = r->epoch;
    lat->Add(us);
    ++*completed;
  }
}

void ReadStep(const Inputs& in, Fixture* fx, bool page, Samples* answers,
              Samples* solve, uint64_t* completed, Ledger* ledger,
              Tracer* tracer) {
  if (!page) {
    for (size_t i = 0; i < fx->scan.size(); ++i) {
      if (TimedSolve(fx->service.get(), fx->scan[i], in.scan[i], solve,
                     ledger, tracer)) {
        ++*completed;
      }
    }
    return;
  }
  ++ledger->attempted;
  Service::CertainAnswersRequest req;
  req.database = kDb;
  req.prepared = fx->answers;
  req.page_size = in.answers.page_size;
  Clock::time_point t = Clock::now();
  cqa::Result<Service::CertainAnswersResponse> r = [&] {
    ScopedSpan span(tracer, "serve.first_page");
    return fx->service->CertainAnswers(req);
  }();
  double us = MicrosSince(t);
  if (!r.ok()) {
    ledger->Fail("answers: " + r.status().message());
    return;
  }
  const AnswerStream::Expected& want = in.answers.At(r->epoch, 0);
  if (r->total_rows != want.total ||
      RowsFingerprint(r->rows, 0, r->rows.size()) != want.page0) {
    ledger->Mismatch("answers page at epoch " + std::to_string(r->epoch));
  } else {
    answers->Add(us);
    ++*completed;
  }
}

/// The concurrent phase: thread 0 writes, the others read.
double RunConcurrent(const Inputs& in, Fixture* fx, double seconds,
                     EndToEnd* run, Ledger* ledger) {
  struct PerThread {
    Samples solve, answers, delta;
    uint64_t completed = 0;
    Ledger ledger;
  };
  std::vector<PerThread> per(1 + kReaders);
  auto stats = fx->service->Stats({});
  uint64_t epoch = stats.ok() ? stats->session.deltas_applied + kPrewritten : 0;
  double measured = RunClosedLoop(
      1 + kReaders, seconds, [&](int t, const std::atomic<bool>& stop) {
        PerThread& me = per[t];
        for (uint64_t i = 0; !stop.load(); ++i) {
          if (t == 0) {
            WriteStep(in, fx, &epoch, &me.delta, &me.completed, &me.ledger,
                      nullptr);
            ReadStep(in, fx, true, &me.answers, &me.solve, &me.completed,
                     &me.ledger, nullptr);
          } else {
            ReadStep(in, fx, false, &me.answers, &me.solve, &me.completed,
                     &me.ledger, nullptr);
          }
        }
      });
  for (const PerThread& p : per) {
    run->solve.Merge(p.solve);
    run->answers.Merge(p.answers);
    run->delta.Merge(p.delta);
    run->completed += p.completed;
    ledger->Merge(p.ledger);
  }
  return measured;
}

std::string StoreRoot(const Args& args, const char* what) {
  return args.work_dir + "/" + what + "-" + std::to_string(getpid());
}

uint64_t NewestSnapshotBytes(const std::string& dir) {
  uint64_t newest_epoch = 0;
  uint64_t bytes = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    std::string name = entry.path().filename().string();
    if (name.rfind("snapshot-", 0) != 0) continue;
    uint64_t epoch = std::strtoull(name.c_str() + 9, nullptr, 10);
    if (epoch >= newest_epoch) {
      newest_epoch = epoch;
      bytes = entry.file_size();
    }
  }
  return bytes;
}

}  // namespace

int RunDeltaDurable(const Args& args) {
  Inputs in = MakeInputs(args.seed);
  const std::string root = StoreRoot(args, "durable");
  PrewriteStore(in, root);
  Ledger ledger;
  EndToEnd run;
  Fixture fx;
  std::vector<double> recover;
  for (int i = 0; i < kSetups; ++i) {
    fx = Fixture();  // releases the previous tenant lease first
    Clock::time_point t = Clock::now();
    if (!SetUp(in, root, &fx, &ledger)) {
      fs::remove_all(root);
      return PrintResult(ledger, {});
    }
    run.setup_s.push_back(SecondsSince(t));
    PauseBetweenSetups();
    recover.push_back(fx.recover_s);
  }
  run.host_before = SampleHost();
  run.measured_s = RunConcurrent(in, &fx, args.seconds, &run, &ledger);
  run.host_after = SampleHost();
  PrintRunShape(kName, 1 + kReaders, 0, kWorkers, run);
  DumpSamples(args, run);
  auto stats = fx.service->Stats({});
  if (stats.ok()) {
    const auto& s = stats->session;
    const auto& st = stats->store;
    std::printf("wal: policy=interval sync_interval_bytes=65536 "
                "compaction_threshold_bytes=262144\n");
    std::printf("work: deltas=%llu wal_appended_bytes=%llu snapshots=%llu "
                "rows_reused=%llu rows_decided=%llu answers_incremental=%llu "
                "answers_full=%llu answers_cached=%llu\n",
                static_cast<unsigned long long>(s.deltas_applied),
                static_cast<unsigned long long>(st.wal_appended_bytes),
                static_cast<unsigned long long>(st.snapshots_written),
                static_cast<unsigned long long>(s.rows_reused),
                static_cast<unsigned long long>(s.rows_decided),
                static_cast<unsigned long long>(s.answers_incremental),
                static_cast<unsigned long long>(s.answers_full),
                static_cast<unsigned long long>(s.answers_cached));
    std::printf("contention: gate_reader_waits=%llu "
                "gate_writer_handoffs=%llu\n",
                static_cast<unsigned long long>(
                    stats->contention.gate_reader_waits),
                static_cast<unsigned long long>(
                    stats->contention.gate_writer_handoffs));
  }
  std::printf("recover_s (median of %d OpenStore): %.6f\n", kSetups,
              Median(recover));
  fx = Fixture();
  fs::remove_all(root);
  return PrintResult(ledger, EndToEndMetrics(run));
}

namespace {

/// What the store replay measured.
struct StoreWork {
  uint64_t user_bytes = 0;
  uint64_t wal_bytes = 0;
  uint64_t snapshot_bytes = 0;
  uint64_t snapshots = 0;
  uint64_t syncs = 0;
};

/// The store layer on its own: the benchmark's DbStore takes `deltas`
/// deltas of the stream with the tenant's compaction threshold. Its WAL
/// never syncs by itself; the replay calls Sync() each time 64 KiB have
/// been appended, the interval the tenant's kInterval policy syncs at,
/// so appends and syncs are timed apart.
StoreWork ReplayStore(const Inputs& in, const std::string& side_root,
                      Tracer* tracer, int deltas, Ledger* ledger) {
  StoreWork work;
  fs::create_directories(side_root);
  cqa::store::DbStore::Options options;
  options.wal.policy = cqa::store::Wal::SyncPolicy::kInterval;
  options.wal.sync_interval_bytes = size_t{1} << 40;
  options.compaction_threshold_bytes =
      ServiceOptions(side_root).durability.compaction_threshold_bytes;
  const std::string dir = cqa::store::JoinPath(side_root, kDb);
  Database model = in.db;
  auto store = cqa::store::DbStore::Create(cqa::store::Env::Default(), dir,
                                           model, 0, options);
  if (!store.ok()) {
    ledger->Fail("side store: " + store.status().message());
    return work;
  }
  uint64_t unsynced = 0;
  for (int k = 0; k < deltas; ++k) {
    const cqa::Delta& delta = in.answers.deltas[k % in.answers.period()];
    std::string encoded;
    cqa::net::Writer w(&encoded);
    cqa::net::EncodeDelta(&w, delta);
    work.user_bytes += encoded.size();
    (void)cqa::ApplyDeltaToDatabase(delta, &model);
    uint64_t appended = (*store)->stats().appended_bytes;
    uint64_t snapshots = (*store)->stats().snapshots_written;
    tracer->BeginRequest(1'000'000 + static_cast<uint64_t>(k));
    {
      ScopedSpan root(tracer, "store.request");
      {
        ScopedSpan span(tracer, "store.append");
        (void)(*store)->AppendDelta(delta, static_cast<uint64_t>(k) + 1);
      }
      unsynced += (*store)->stats().appended_bytes - appended;
      if (unsynced >= 64 * 1024) {
        ScopedSpan span(tracer, "store.sync");
        (void)(*store)->Sync();
        unsynced = 0;
        ++work.syncs;
      }
      ScopedSpan span(tracer, "store.compact");
      (*store)->MaybeCompact(model, static_cast<uint64_t>(k) + 1);
    }
    if ((*store)->stats().snapshots_written != snapshots) {
      work.snapshot_bytes += NewestSnapshotBytes(dir);
    }
  }
  work.wal_bytes = (*store)->stats().appended_bytes;
  work.snapshots = (*store)->stats().snapshots_written;
  store->reset();
  fs::remove_all(side_root);
  return work;
}

}  // namespace

LayerReport ReplayDeltaDurable(const Args& args, Tracer* tracer,
                               int requests, Ledger* ledger) {
  LayerReport report;
  Inputs in = MakeInputs(args.seed);
  const std::string root = StoreRoot(args, "trace-durable");
  PrewriteStore(in, root);
  Fixture fx;
  std::vector<double> recover;
  for (int i = 0; i < kSetups && ledger->failed == 0; ++i) {
    fx = Fixture();
    if (SetUp(in, root, &fx, ledger)) recover.push_back(fx.recover_s);
  }
  if (ledger->failed != 0) {
    fx = Fixture();
    fs::remove_all(root);
    return report;
  }
  // Seeded candidate enumeration runs on a plain copy of the database,
  // seeded with the key each delta dirties.
  cqa::EvalContext ctx(in.db);
  auto before = fx.service->Stats({});
  uint64_t epoch = kPrewritten;
  uint64_t completed = 0;
  Samples sink;
  cqa::SymbolId dirty = 0;
  ReplayAlternating(
      tracer, requests, 1, 0,
      [&](int) {
        dirty = in.answers.deltas[epoch % in.answers.period()]
                    .ops()
                    .front()
                    .key[0];
        WriteStep(in, &fx, &epoch, &sink, &completed, ledger, tracer);
        ReadStep(in, &fx, true, &sink, &sink, &completed, ledger, tracer);
        for (int r = 0; r < kReaders; ++r) {
          ReadStep(in, &fx, false, &sink, &sink, &completed, ledger, tracer);
        }
      },
      [&](int) {
        cqa::Valuation seed;
        seed.Bind(in.answers.free_vars[0], dirty);
        std::set<std::vector<cqa::SymbolId>> out;
        ScopedSpan span(tracer, "cq.seeded_enumerate");
        cqa::CollectProjections(ctx.fact_index(), in.answers.query, seed,
                                in.answers.free_vars, &out);
      },
      &report);
  auto after = fx.service->Stats({});
  // Contention needs concurrency: a short run of the real thread
  // layout, untraced, supplies the gate counts.
  EndToEnd contended;
  RunConcurrent(in, &fx, 1.0, &contended, ledger);
  auto contended_stats = fx.service->Stats({});
  fx = Fixture();
  fs::remove_all(root);
  const int store_deltas = 200 * requests;
  StoreWork store = ReplayStore(in, StoreRoot(args, "trace-store"), tracer,
                                store_deltas, ledger);
  if (!before.ok() || !after.ok() || !contended_stats.ok()) {
    ledger->Fail("stats");
    return report;
  }
  const ServeCounts serves(before->session, after->session);
  std::printf("ratio base: delta_durable serve.cache_hit_ratio = %llu "
              "cached / %llu serves; serve.rows_reused_ratio = %llu reused "
              "/ %llu (reused + decided); store.bytes_per_user_byte = "
              "(%llu WAL + %llu snapshot) / %llu user bytes; "
              "store.compactions = %llu snapshots per %d deltas; "
              "gate counts over a 1 s run of 1 writer + %d readers\n",
              static_cast<unsigned long long>(serves.cached),
              static_cast<unsigned long long>(serves.serves()),
              static_cast<unsigned long long>(serves.reused),
              static_cast<unsigned long long>(serves.reused + serves.decided),
              static_cast<unsigned long long>(store.wal_bytes),
              static_cast<unsigned long long>(store.snapshot_bytes),
              static_cast<unsigned long long>(store.user_bytes),
              static_cast<unsigned long long>(store.snapshots), store_deltas,
              kReaders);
  report.metrics = {
      {"serve.apply_delta_us", MeanSelfUs(*tracer, kName, "serve.apply_delta"),
       "us"},
      {"serve.cache_hit_ratio", serves.cache_hit_ratio(), "ratio"},
      {"serve.rows_reused_ratio", serves.rows_reused_ratio(), "ratio"},
      {"serve.gate_reader_waits",
       static_cast<double>(contended_stats->contention.gate_reader_waits -
                           after->contention.gate_reader_waits),
       "count"},
      {"serve.gate_writer_handoffs",
       static_cast<double>(contended_stats->contention.gate_writer_handoffs -
                           after->contention.gate_writer_handoffs),
       "count"},
      {"cq.seeded_enumerate_us",
       MeanSelfUs(*tracer, kName, "cq.seeded_enumerate"), "us"},
      {"store.append_us", MeanSelfUs(*tracer, kName, "store.append"), "us"},
      {"store.sync_us", MeanSelfUs(*tracer, kName, "store.sync"), "us"},
      {"store.compact_us", MeanSelfUs(*tracer, kName, "store.compact"), "us"},
      {"store.compactions", 10000.0 * Ratio(store.snapshots, store_deltas),
       "per_10k_deltas"},
      {"store.bytes_per_user_byte",
       Ratio(store.wal_bytes + store.snapshot_bytes, store.user_bytes),
       "ratio"},
      {"store.recover_s", Median(recover), "s"},
  };
  report.work = {
      {"deltas", after->session.deltas_applied -
                     before->session.deltas_applied},
      {"rows_reused", serves.reused},
      {"rows_decided", serves.decided},
      {"answers_incremental", serves.incremental},
      {"answers_full", serves.full},
      {"wal_appended_bytes",
       after->store.wal_appended_bytes - before->store.wal_appended_bytes},
      {"store_replay_wal_bytes", store.wal_bytes},
      {"store_replay_snapshots", store.snapshots},
      {"store_replay_syncs", store.syncs},
  };
  return report;
}

}  // namespace perfbench
