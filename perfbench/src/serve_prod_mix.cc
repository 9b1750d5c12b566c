// serve_prod_mix: open-loop in-process serving of recurring-shape traffic.
//
// One generator thread submits through serve::Server::TrySubmitCallback on
// a seeded Poisson schedule and times each request from when it was due.
// The model is the LSTM (input 128, hidden 256); lengths follow the
// production mix (8 recurring exact lengths, several sharing a bucket).
// The server runs bucketed packed batching at batch 8 with the shape-bucket
// executable cache on 2 pool workers, through a fixed ladder of offered
// rates from light load (batches of about one request, cache bypassed) to
// past the knee (full carved batches on cached variants), and a saturated
// phase that keeps a deep backlog queued. The end-to-end figures come from
// the saturated phase: peak throughput, and the latency of a request
// behind that backlog, which the server's throughput and its fairness
// across buckets set. The light rung's latency is a per-layer figure: on a
// shared 4-vCPU host it tracked the CPU time other tenants stole from each
// run, and its p99 spread over five seeds was 0.3 to 0.4.
#include <algorithm>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "perfbench/src/common.h"
#include "perfbench/src/inputs.h"
#include "perfbench/src/probes.h"
#include "perfbench/src/spans.h"
#include "perfbench/src/stats.h"
#include "src/models/lstm.h"
#include "src/models/workloads.h"
#include "src/serve/exec_cache.h"
#include "src/serve/server.h"
#include "src/vm/vm.h"

namespace perfbench {

namespace {

namespace nr = nimble::runtime;
namespace ns = nimble::serve;
using nimble::support::Rng;

constexpr int kWorkers = 2;
constexpr int64_t kBatch = 8;
constexpr int64_t kMaxWaitMicros = 2000;
constexpr int kItemsPerLength = 16;
constexpr int kSetups = 25;
constexpr size_t kQueueCapacity = 1 << 16;
constexpr double kSloMs = 100.0;
/// A rung whose generator ran later than this at p99 fell behind its
/// schedule and is invalid (5% of the latency SLO).
constexpr double kLateLimitMs = 5.0;
/// Requests kept outstanding during the saturated phase, which runs as
/// kPeakSegments segments of kPeakWindows sub-windows each; throughput is
/// the median over all sub-windows, so a transient stall of the host does
/// not set the run's figure.
constexpr int64_t kPeakOutstanding = 512;
constexpr int kPeakSegments = 3;
constexpr int kPeakWindows = 5;
constexpr int kABBurst = 512;
/// Offered rates. The first is the light rung serve.p50_ms.light and
/// serve.p99_ms.light are read from: batches of about one request on the
/// generic executable, with the two workers about 40% busy.
const double kLadderRps[] = {100, 200, 400, 800, 1200, 1600};
const std::vector<int64_t> kBucketEdges = {16, 24, 32, 40, 48, 56, 64, 96, 128};

nimble::models::LSTMConfig ServedConfig() {
  nimble::models::LSTMConfig config;
  config.input_size = 128;
  config.hidden_size = 256;
  config.emit_batched = true;
  return config;
}

nimble::core::CompileOptions ServedOptions(
    const nimble::models::LSTMModel& model) {
  nimble::core::CompileOptions options;
  options.batched_entries = {model.batched_spec};
  return options;
}

struct Item {
  int64_t len = 0;
  std::vector<nr::ObjectRef> args;
  nr::NDArray expected;  // sequential single-VM Invoke("main")
};

struct Pool {
  std::vector<Item> items;
  std::map<int64_t, std::vector<size_t>> by_length;

  const Item& Pick(int64_t len, Rng& rng) const {
    const std::vector<size_t>& of_len = by_length.at(len);
    return items[of_len[rng.Next() % of_len.size()]];
  }
};

Pool MakePool(uint64_t seed) {
  nimble::models::LSTMModel model = nimble::models::BuildLSTM(ServedConfig());
  nimble::core::CompileOptions options = ServedOptions(model);
  auto exec = nimble::core::Compile(model.module, options).executable;
  nimble::vm::VirtualMachine sequential(exec);
  Rng rng = Stream(seed, 1);
  Pool pool;
  for (int64_t len : ProdMixHotLengths()) {
    for (int k = 0; k < kItemsPerLength; ++k) {
      Item item;
      item.len = len;
      item.args = LSTMArgs(
          nimble::models::RandomSequence(len, ServedConfig().input_size, rng),
          len);
      item.expected = nr::AsTensor(sequential.Invoke("main", item.args));
      pool.by_length[len].push_back(pool.items.size());
      pool.items.push_back(std::move(item));
    }
  }
  return pool;
}

/// Variant compiles the cache ran, timed inside the compile callback.
struct VariantLog {
  std::mutex mu;
  std::vector<double> compile_ms;
  std::vector<std::shared_ptr<nimble::vm::Executable>> execs;
};

ns::CompileVariantFn VariantCompiler(std::shared_ptr<VariantLog> log) {
  return [log](int64_t max_len, int64_t batch,
               const nimble::codegen::DenseConfig& dense_config)
             -> std::shared_ptr<nimble::vm::Executable> {
    ScopedSpan span("serve.variant_compile");
    Clock::time_point t0 = Clock::now();
    nimble::models::LSTMModel model = nimble::models::BuildLSTM(ServedConfig());
    nimble::core::CompileOptions options = ServedOptions(model);
    options.specialize_length = max_len;
    options.specialize_batch = batch;
    options.dense_config = dense_config;
    auto exec = nimble::core::Compile(model.module, options).executable;
    double ms = SecondsSince(t0) * 1e3;
    std::lock_guard<std::mutex> lock(log->mu);
    log->compile_ms.push_back(ms);
    log->execs.push_back(exec);
    return exec;
  };
}

/// One request as the benchmark saw it, plus the server's stage stamps
/// copied from the completion callback's TraceContext in the traced run.
struct Rec {
  const Item* item = nullptr;
  int64_t due_ns = 0;
  int64_t send_ns = 0;
  int64_t admitted_ns = 0;
  int64_t done_ns = 0;
  bool accepted = false;
  bool error = false;
  bool correct = false;  // output bit-identical to `item->expected`
  bool packed = false;
  int64_t enqueue_ns = 0, dispatch_ns = 0, pack_end_ns = 0, exec_end_ns = 0,
          unpack_end_ns = 0, kernel_ns = 0;
};

/// The requests of one phase. A deque keeps each Rec's address stable
/// while the generator appends and completion callbacks write.
struct Phase {
  std::deque<Rec> recs;
  std::atomic<int64_t> done{0};
  int64_t accepted = 0;
  bool copy_trace = false;
};

void Submit(ns::Server& server, Phase* phase, Rec* rec) {
  rec->send_ns = NowNs();
  ns::Server::AdmitResult admit = server.TrySubmitCallback(
      "m", rec->item->args, rec->item->len,
      [phase, rec](nr::ObjectRef result, std::exception_ptr error,
                   const nimble::obs::TraceContext& trace) {
        rec->done_ns = NowNs();
        rec->error = error != nullptr;
        // Checked here rather than after the phase so the outputs, which
        // hold the workers' pooled buffers, are released at once: the
        // process's memory then does not grow with the requests a phase
        // completes.
        rec->correct = !rec->error && result != nullptr &&
                       result->tag() == nr::ObjectTag::kTensor &&
                       BitIdentical(nr::AsTensor(result), rec->item->expected);
        if (phase->copy_trace) {
          rec->packed = trace.packed;
          rec->enqueue_ns = ToNs(trace.enqueue);
          rec->dispatch_ns = ToNs(trace.dispatch);
          rec->pack_end_ns = ToNs(trace.pack_end);
          rec->exec_end_ns = ToNs(trace.exec_end);
          rec->unpack_end_ns = ToNs(trace.unpack_end);
          rec->kernel_ns = trace.vm.kernel_nanos;
        }
        phase->done.fetch_add(1, std::memory_order_release);
      });
  rec->admitted_ns = NowNs();
  rec->accepted = admit.accepted();
  if (rec->accepted) phase->accepted++;
}

/// Waits for every accepted request of `phase` to complete. Callbacks
/// still running after the deadline would race with the caller's reads,
/// so a stuck phase ends the process.
void WaitDone(const Phase& phase) {
  Clock::time_point deadline = Clock::now() + std::chrono::seconds(60);
  while (phase.done.load(std::memory_order_acquire) < phase.accepted) {
    if (Clock::now() > deadline) Fatal("serving requests did not complete");
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

/// Counts every request of a finished phase by the check its completion
/// callback made against the reference.
void Verify(Phase* phase, Outcome* outcome) {
  for (Rec& rec : phase->recs) {
    if (!rec.accepted || rec.error) {
      outcome->Fail();
    } else if (!rec.correct) {
      outcome->Wrong();
    } else {
      outcome->Ok();
    }
  }
}

/// Sleeps until shortly before `target_ns`, then spins to it: sends leave on
/// schedule unless the host delays the wake-up by more than the margin,
/// and the generator does not hold a core the workers could use.
void WaitUntil(int64_t target_ns) {
  constexpr int64_t kSpinNs = 1000000;
  int64_t now = NowNs();
  if (target_ns - now > kSpinNs) {
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(target_ns - now - kSpinNs));
  }
  while (NowNs() < target_ns) {
  }
}

/// Server stage durations of traced requests, from the stamps the
/// completion callback's TraceContext carries.
struct Stages {
  std::vector<double> queue_ms, pack_ms, exec_ms, kernel_ms, unpack_ms;
};

/// Records the traced run's spans of a finished phase — one "request" span
/// per request (due to completion) tiled by its stage children — and adds
/// the stage durations to `stages`.
void RecordRequestSpans(const Phase& phase, int64_t parent, int64_t* seq,
                        Stages* stages, bool with_queue) {
  if (!phase.copy_trace) return;
  SpanRecorder& rec = SpanRecorder::Global();
  for (const Rec& r : phase.recs) {
    int64_t request = (*seq)++;
    if (!r.accepted || r.error) continue;
    if (with_queue) stages->queue_ms.push_back(Ms(r.dispatch_ns - r.enqueue_ns));
    if (r.packed) {
      stages->pack_ms.push_back(Ms(r.pack_end_ns - r.dispatch_ns));
      stages->unpack_ms.push_back(Ms(r.unpack_end_ns - r.exec_end_ns));
    }
    stages->exec_ms.push_back(Ms(r.exec_end_ns - r.pack_end_ns));
    stages->kernel_ms.push_back(Ms(r.kernel_ns));
    int64_t id = rec.NewId();
    int64_t start = r.due_ns > 0 ? r.due_ns : r.send_ns;
    rec.Record(id, "request", start, r.done_ns, parent, request);
    if (r.due_ns > 0) rec.Record("gen.late", r.due_ns, r.send_ns, id, request);
    int64_t cursor = r.send_ns;
    auto tile = [&](const char* name, int64_t end) {
      end = std::max(end, cursor);
      rec.Record(name, cursor, end, id, request);
      cursor = end;
    };
    tile("serve.admission", r.enqueue_ns);
    tile("serve.queue", r.dispatch_ns);
    tile("batch.pack", r.pack_end_ns);
    tile("vm.exec", r.exec_end_ns);
    tile("batch.unpack", r.unpack_end_ns);
    tile("serve.write", r.done_ns);
  }
}

struct Deployment {
  TimedCompile compile;
  std::shared_ptr<VariantLog> variants = std::make_shared<VariantLog>();
  std::shared_ptr<ns::ExecCache> cache;
  std::unique_ptr<ns::Server> server;  // destroyed before the cache

  ~Deployment() {
    if (server != nullptr) server->Shutdown();
  }
  std::vector<std::shared_ptr<nimble::vm::Executable>> Executables() {
    std::lock_guard<std::mutex> lock(variants->mu);
    std::vector<std::shared_ptr<nimble::vm::Executable>> all =
        variants->execs;
    all.push_back(compile.result.executable);
    return all;
  }
};

std::unique_ptr<ns::Server> StartServer(const Deployment& d, bool telemetry) {
  ns::ServeConfig config;
  config.num_workers = kWorkers;
  config.trace.enabled = telemetry;
  config.step_journal.enabled = telemetry;
  auto server = std::make_unique<ns::Server>(config);
  ns::ModelConfig model;
  model.exec = d.compile.result.executable;
  model.queue_capacity = kQueueCapacity;
  model.batch.max_batch_size = kBatch;
  model.batch.max_wait_micros = kMaxWaitMicros;
  model.batch.tensor_batching = true;
  model.batch.bucket_edges = kBucketEdges;
  model.exec_cache = d.cache;
  server->AddModel("m", std::move(model));
  ScopedSpan span("serve.start");
  server->Start();
  return server;
}

/// Submits `items` all at once and waits for every completion; returns
/// the seconds from the first submission to the last completion. `traced`
/// records the requests' spans as the traced run does.
double Burst(ns::Server& server, const std::vector<const Item*>& items,
             bool traced, Outcome* outcome) {
  Phase phase;
  phase.copy_trace = traced;
  for (const Item* item : items) {
    phase.recs.emplace_back();
    phase.recs.back().item = item;
  }
  int64_t t0 = NowNs();
  for (Rec& rec : phase.recs) Submit(server, &phase, &rec);
  WaitDone(phase);
  int64_t last = t0;
  for (const Rec& rec : phase.recs) last = std::max(last, rec.done_ns);
  Verify(&phase, outcome);
  int64_t seq = 0;
  Stages ignored;
  RecordRequestSpans(phase, SpanRecorder::CurrentParent(), &seq, &ignored,
                     false);
  return static_cast<double>(last - t0) / 1e9;
}

/// Compile, start and warm one deployment; returns its set-up seconds.
/// Warm-up sends three full batches of every hot length so each earns a
/// cached variant, then waits for the cache's compile thread to go idle.
double SetUp(Deployment* d, const Pool& pool, Outcome* outcome) {
  ScopedSpan span("setup");
  Clock::time_point t0 = Clock::now();
  nimble::models::LSTMModel model = nimble::models::BuildLSTM(ServedConfig());
  d->compile = CompileTimed(model.module, ServedOptions(model));
  ns::ExecCacheConfig cache_config;
  cache_config.specialize_batch = kBatch;
  d->cache = std::make_shared<ns::ExecCache>(VariantCompiler(d->variants),
                                             cache_config);
  d->server = StartServer(*d, true);
  {
    ScopedSpan warm("serve.warmup");
    std::vector<const Item*> items;
    for (int rep = 0; rep < 3 * kBatch; ++rep) {
      for (int64_t len : ProdMixHotLengths()) {
        const auto& of_len = pool.by_length.at(len);
        items.push_back(&pool.items[of_len[rep % of_len.size()]]);
      }
    }
    Burst(*d->server, items, false, outcome);
    d->cache->WaitIdle();
  }
  return SecondsSince(t0);
}

struct Rung {
  double rate = 0.0;
  size_t requests = 0;
  std::vector<double> latency_ms;
  Tail p99;
  double late_p99_ms = 0.0;
  double late_max_ms = 0.0;
  double drain_ms = 0.0;
  int64_t failed = 0;
  bool valid = false;  // generator kept to its schedule
  bool meets_slo = false;
};

Rung RunRung(ns::Server& server, const Pool& pool, uint64_t seed, int index,
             double rate, double seconds, bool trace, Outcome* outcome,
             int64_t* seq, Stages* stages) {
  Rng rng = Stream(seed, 100 + static_cast<uint64_t>(index));
  std::vector<double> due = PoissonArrivals(rng, rate, seconds);
  std::vector<int64_t> lengths =
      ProdMixLengths(rng, static_cast<int>(due.size()));
  Phase phase;
  phase.copy_trace = trace;
  for (size_t i = 0; i < due.size(); ++i) {
    phase.recs.emplace_back();
    phase.recs.back().item = &pool.Pick(lengths[i], rng);
  }
  ScopedSpan span("rung");
  int64_t t0 = NowNs() + 1000000;
  for (size_t i = 0; i < due.size(); ++i) {
    Rec& rec = phase.recs[i];
    rec.due_ns = t0 + static_cast<int64_t>(due[i] * 1e9);
    WaitUntil(rec.due_ns);
    Submit(server, &phase, &rec);
  }
  WaitDone(phase);

  Rung rung;
  rung.rate = rate;
  rung.requests = phase.recs.size();
  std::vector<double> late_ms;
  int64_t last_due = t0, last_done = t0;
  for (const Rec& rec : phase.recs) {
    late_ms.push_back(Ms(rec.send_ns - rec.due_ns));
    last_due = std::max(last_due, rec.due_ns);
    if (rec.accepted && !rec.error) {
      rung.latency_ms.push_back(Ms(rec.done_ns - rec.due_ns));
      last_done = std::max(last_done, rec.done_ns);
    } else {
      rung.failed++;
    }
  }
  int64_t wrong_before = outcome->wrong.load();
  Verify(&phase, outcome);
  rung.failed += outcome->wrong.load() - wrong_before;
  RecordRequestSpans(phase, span.id(), seq, stages, true);

  rung.p99 = TailPercentile(rung.latency_ms, 99.0);
  rung.late_p99_ms = Percentile(late_ms, 99.0);
  rung.late_max_ms = late_ms.empty() ? 0.0
                                     : *std::max_element(late_ms.begin(),
                                                         late_ms.end());
  // A growing backlog shows as a long drain after the last due request.
  rung.drain_ms = Ms(last_done - last_due);
  rung.valid = rung.late_p99_ms <= kLateLimitMs;
  rung.meets_slo = rung.valid && rung.failed == 0 && !due.empty() &&
                   rung.p99.value <= kSloMs && rung.drain_ms <= kSloMs;
  return rung;
}

/// Sub-window figures of the saturated segments, and the latency of each
/// request completed inside their sub-windows.
struct Peak {
  std::vector<double> rps;
  std::vector<double> us_per_token;
  std::vector<double> latency_ms;
  std::vector<double> admit_us;
  int64_t samples = 0;
  int64_t nonempty = 0;  // samples that saw a non-empty admission queue
};

/// One saturated segment: keeps kPeakOutstanding requests in flight for
/// `seconds` and adds the completion rate of each of kPeakWindows
/// sub-windows after the first tenth (the ramp) to `peak`.
void RunPeak(ns::Server& server, const Pool& pool, uint64_t seed, int segment,
             double seconds, bool trace, Outcome* outcome, int64_t* seq,
             Stages* stages, Peak* peak) {
  Rng rng = Stream(seed, 200 + static_cast<uint64_t>(segment));
  Phase phase;
  phase.copy_trace = trace;
  ScopedSpan span("peak");
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  const int64_t window_start = start + (end - start) / 10;
  std::vector<int64_t> lengths;
  size_t next = 0;
  while (NowNs() < end) {
    while (phase.accepted - phase.done.load(std::memory_order_acquire) <
           kPeakOutstanding) {
      phase.recs.emplace_back();
      Rec& rec = phase.recs.back();
      if (next == lengths.size()) {
        lengths = ProdMixLengths(rng, 100);
        next = 0;
      }
      rec.item = &pool.Pick(lengths[next++], rng);
      Submit(server, &phase, &rec);
      if (!rec.accepted) break;
    }
    if (NowNs() >= window_start) {
      peak->samples++;
      if (server.queue_depth("m") > 0) peak->nonempty++;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  WaitDone(phase);
  std::vector<int64_t> done_at;
  std::vector<double> tokens;
  for (const Rec& rec : phase.recs) {
    if (rec.accepted && !rec.error) {
      done_at.push_back(rec.done_ns);
      tokens.push_back(static_cast<double>(rec.item->len));
      if (rec.done_ns >= window_start && rec.done_ns < end) {
        peak->latency_ms.push_back(Ms(rec.done_ns - rec.send_ns));
      }
    }
    peak->admit_us.push_back(
        static_cast<double>(rec.admitted_ns - rec.send_ns) / 1e3);
  }
  Verify(&phase, outcome);
  RecordRequestSpans(phase, span.id(), seq, stages, false);
  WindowRates rates =
      RatesPerWindow(done_at, tokens, window_start, end, kPeakWindows);
  peak->rps.insert(peak->rps.end(), rates.rps.begin(), rates.rps.end());
  peak->us_per_token.insert(peak->us_per_token.end(),
                            rates.us_per_token.begin(),
                            rates.us_per_token.end());
}

/// Counter changes over phases, from ServeStats snapshots taken around
/// each.
struct StatsDelta {
  double batches = 0, batched = 0, hits = 0, misses = 0, packed = 0,
         padded = 0, packed_total = 0;

  void Add(const StatsDelta& o) {
    batches += o.batches;
    batched += o.batched;
    hits += o.hits;
    misses += o.misses;
    packed += o.packed;
    padded += o.padded;
    packed_total += o.packed_total;
  }
};
StatsDelta Delta(const ns::StatsSnapshot& a, const ns::StatsSnapshot& b) {
  StatsDelta d;
  d.batches = static_cast<double>(b.batches - a.batches);
  d.batched = b.mean_batch_size * static_cast<double>(b.batches) -
              a.mean_batch_size * static_cast<double>(a.batches);
  d.hits = static_cast<double>(b.cache_hits - a.cache_hits);
  d.misses = static_cast<double>(b.cache_misses - a.cache_misses);
  d.packed = static_cast<double>(b.packed_batches - a.packed_batches);
  d.padded = static_cast<double>(b.padded_elements - a.padded_elements);
  d.packed_total =
      static_cast<double>(b.packed_total_elements - a.packed_total_elements);
  return d;
}
double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

int RunServeProdMix(const Options& opt, MetricSink* sink, Outcome* outcome) {
  Pool pool = MakePool(opt.seed);

  std::vector<double> setup_s;
  auto d = std::make_unique<Deployment>();
  for (int i = 0; i < kSetups; ++i) {
    if (i > 0) d = std::make_unique<Deployment>();  // tears the last down
    setup_s.push_back(SetUp(d.get(), pool, outcome));
  }
  sink->Set("setup_s", Median(setup_s), "s");
  ns::Server& server = *d->server;

  // The light rung offers 2000 requests at 50 s, enough for a p99 with ten
  // samples beyond it. The saturated phase runs as three segments spread
  // over the run, so slow drift of the host weighs on all of them.
  const double light_s = 0.40 * WorkSeconds(opt);
  const double rung_s = 0.03 * WorkSeconds(opt);
  const double segment_s = 0.45 / kPeakSegments * WorkSeconds(opt);
  int64_t seq = 0;

  DispatchTotals dispatch_before = ReadDispatch(d->Executables());
  AllocTotals alloc_before = SumScopes(server.MemoryScopes(), "worker:");
  std::vector<Rung> ladder;
  Stages stages;
  Peak peak;
  StatsDelta light, sat, all;
  int segment = 0;
  auto run_peak = [&] {
    ns::StatsSnapshot before = server.stats();
    RunPeak(server, pool, opt.seed, segment++, segment_s, opt.trace, outcome,
            &seq, &stages, &peak);
    sat.Add(Delta(before, server.stats()));
  };
  ns::StatsSnapshot s0 = server.stats();
  run_peak();
  for (size_t i = 0; i < std::size(kLadderRps); ++i) {
    ns::StatsSnapshot before = server.stats();
    ladder.push_back(RunRung(server, pool, opt.seed, static_cast<int>(i),
                             kLadderRps[i], i == 0 ? light_s : rung_s,
                             opt.trace, outcome, &seq, &stages));
    if (i == 0) {
      light = Delta(before, server.stats());
      run_peak();
    }
  }
  run_peak();
  ns::StatsSnapshot s_end = server.stats();
  all = Delta(s0, s_end);
  sink->Set("throughput_rps", Median(peak.rps), "1/s");
  sink->Set("us_per_token", Median(peak.us_per_token), "us");

  std::printf("  ladder (SLO p99 <= %.0f ms from the due time):\n", kSloMs);
  double slo_rps = 0.0;
  bool all_below_pass = true;
  int invalid = 0;
  double late_p99 = 0.0, late_max = 0.0;
  for (const Rung& r : ladder) {
    std::printf("    %6.0f req/s: %5zu requests, p50 %8.3f ms, p%g %8.3f ms "
                "(%zu beyond), drain %8.3f ms, generator late p99 %.3f ms "
                "max %.3f ms%s%s\n",
                r.rate, r.requests, Median(r.latency_ms), r.p99.percentile,
                r.p99.value, r.p99.beyond, r.drain_ms, r.late_p99_ms,
                r.late_max_ms, r.valid ? "" : " INVALID",
                r.meets_slo ? " meets SLO" : "");
    all_below_pass = all_below_pass && r.meets_slo;
    if (all_below_pass) slo_rps = r.rate;
    if (!r.valid) invalid++;
    late_p99 = std::max(late_p99, r.late_p99_ms);
    late_max = std::max(late_max, r.late_max_ms);
  }
  ReportLatency(sink, "p50_ms", "p99_ms", peak.latency_ms);
  sink->Set("serve.p50_ms.light", Median(ladder[0].latency_ms), "ms");
  sink->Set("serve.p99_ms.light", ladder[0].p99.value, "ms");
  sink->Set("serve.slo_rps", slo_rps, "1/s");
  sink->Set("serve.p99_ms.high", ladder.back().p99.value, "ms");
  sink->Set("gen.late_ms.p99", late_p99, "ms");
  sink->Set("gen.late_ms.max", late_max, "ms");
  sink->Set("gen.invalid_rungs", invalid, "count");
  std::printf("  saturated: %.1f req/s, %.2f us/token (medians of %zu "
              "sub-windows), admission queue non-empty in %.1f%% of samples\n",
              Median(peak.rps), Median(peak.us_per_token), peak.rps.size(),
              peak.samples > 0 ? 100.0 * peak.nonempty / peak.samples : 0.0);

  // Per-layer probes.
  ReportCompile(sink, "served", d->compile);
  ReportCodegen(sink, dispatch_before, ReadDispatch(d->Executables()));
  ReportRuntime(sink, alloc_before, SumScopes(server.MemoryScopes(), "worker:"));
  sink->Set("serve.mean_batch_size", Ratio(sat.batched, sat.batches), "count");
  sink->Set("serve.mean_batch_size.light", Ratio(light.batched, light.batches),
            "count");
  sink->Set("serve.cache_hit_ratio", Ratio(sat.hits, sat.hits + sat.misses),
            "ratio");
  sink->Set("serve.cache_hit_ratio.light",
            Ratio(light.hits, light.hits + light.misses), "ratio");
  sink->Set("batch.padding_waste", Ratio(all.padded, all.packed_total),
            "ratio");
  sink->Set("batch.packed_ratio", Ratio(all.packed, all.batches), "ratio");
  sink->Set("serve.rejected", static_cast<double>(s_end.rejected), "count");
  {
    std::lock_guard<std::mutex> lock(d->variants->mu);
    double total = 0.0;
    for (double ms : d->variants->compile_ms) total += ms;
    sink->Set("serve.variant_compile_ms", total, "ms");
    sink->Set("serve.variant_compiles",
              static_cast<double>(d->variants->compile_ms.size()), "count");
  }
  sink->Set("serve.admit_us.p50", Median(peak.admit_us), "us");
  sink->Set("serve.admit_us.p99", Percentile(peak.admit_us, 99.0), "us");

  sink->Set("serve.queue_wait_ms.p50", Median(stages.queue_ms), "ms");
  sink->Set("serve.queue_wait_ms.p99", Percentile(stages.queue_ms, 99.0), "ms");
  sink->Set("batch.pack_ms.p50", Median(stages.pack_ms), "ms");
  sink->Set("batch.unpack_ms.p50", Median(stages.unpack_ms), "ms");
  sink->Set("vm.exec_ms.p50", Median(stages.exec_ms), "ms");
  sink->Set("vm.kernel_ms.p50", Median(stages.kernel_ms), "ms");

  if (opt.trace) {
    // Telemetry A/B: fresh servers on the warmed cache, one burst each.
    Rng rng = Stream(opt.seed, 300);
    std::vector<const Item*> burst;
    for (int64_t len : ProdMixLengths(rng, kABBurst)) {
      burst.push_back(&pool.Pick(len, rng));
    }
    d->server->Shutdown();
    const int rounds =
        std::clamp(static_cast<int>(ABSeconds(opt) / 1.3), 3, 9);
    RunTelemetryAB(sink, rounds, [&](bool telemetry, bool spans) {
      auto ab = StartServer(*d, telemetry);
      double seconds = Burst(*ab, burst, spans, outcome);
      ab->Shutdown();
      return seconds / kABBurst;
    });
  }
  sink->Set("peak_rss_mb", PeakRssMb(), "MB");
  return 0;
}

}  // namespace perfbench
