// http_short_long: the full stack over loopback, closed loop.
//
// Four keep-alive connections send the binary protocol, each caller
// waiting for its reply before sending the next request. The mix is 70%
// short (4-8 steps) and 30% long (48-64 steps) on the LSTM (input 64,
// hidden 128), served by the continuous slot-map path with 4 slots. This
// is the only workload through net/, and it runs batch/ and vm/ through the
// per-step twin (dynamic [slots, D] shapes), bypassing the batch scheduler
// and the executable cache.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include "perfbench/src/common.h"
#include "perfbench/src/inputs.h"
#include "perfbench/src/probes.h"
#include "perfbench/src/spans.h"
#include "perfbench/src/stats.h"
#include "src/models/lstm.h"
#include "src/models/workloads.h"
#include "src/net/http_client.h"
#include "src/net/http_server.h"
#include "src/obs/memory.h"
#include "src/serve/server.h"
#include "src/vm/vm.h"

namespace perfbench {

namespace {

namespace nr = nimble::runtime;
namespace ns = nimble::serve;
namespace nn = nimble::net;
using nimble::support::Rng;

constexpr int kClients = 4;
constexpr int64_t kSlots = 4;
constexpr int kPoolSize = 256;
constexpr int kSetups = 31;
/// Warm-up requests of each class (short and long) per set-up.
constexpr int kWarmupPerClass = 4;
constexpr double kABArmSeconds = 0.4;
/// Sub-windows the closed loop's rates are medians over.
constexpr int kWindows = 9;
/// Untimed closed loop after set-up, so pools and caches settle first.
constexpr double kWarmupSeconds = 1.0;

nimble::models::LSTMConfig ServedConfig() {
  nimble::models::LSTMConfig config;
  config.input_size = 64;
  config.hidden_size = 128;
  config.emit_batched = true;
  return config;
}

struct Item {
  int index = 0;  // in the pool
  int64_t len = 0;
  std::string body;  // raw float32 [len, 64]
  std::string shape_header;
  nr::NDArray expected;  // sequential single-VM Invoke("main")
};

std::vector<Item> MakePool(uint64_t seed) {
  nimble::models::LSTMModel model = nimble::models::BuildLSTM(ServedConfig());
  nimble::core::CompileOptions options;
  options.batched_entries = {model.batched_spec};
  auto exec = nimble::core::Compile(model.module, options).executable;
  nimble::vm::VirtualMachine sequential(exec);
  Rng rng = Stream(seed, 1);
  std::vector<Item> pool;
  for (int64_t len : ShortLongLengths(rng, kPoolSize)) {
    Item item;
    item.index = static_cast<int>(pool.size());
    item.len = len;
    nr::NDArray x =
        nimble::models::RandomSequence(len, ServedConfig().input_size, rng);
    item.body.assign(static_cast<const char*>(x.raw_data()), x.nbytes());
    item.shape_header = std::to_string(len) + "," +
                        std::to_string(ServedConfig().input_size);
    item.expected = nr::AsTensor(sequential.Invoke("main", LSTMArgs(x, len)));
    pool.push_back(std::move(item));
  }
  return pool;
}

/// Server plus HTTP front end; stops both on destruction.
struct Deployment {
  TimedCompile compile;
  std::unique_ptr<ns::Server> server;
  std::unique_ptr<nn::HttpServer> http;  // destroyed before the server

  ~Deployment() {
    if (http != nullptr) http->Stop();
    if (server != nullptr) server->Shutdown();
  }
};

void Start(Deployment* d, bool telemetry) {
  ns::ServeConfig config;
  config.trace.enabled = telemetry;
  config.step_journal.enabled = telemetry;
  d->server = std::make_unique<ns::Server>(config);
  ns::ModelConfig model;
  model.exec = d->compile.result.executable;
  model.queue_capacity = 1024;
  model.batch.continuous = true;
  model.batch.continuous_slots = kSlots;
  d->server->AddModel("m", std::move(model));
  {
    ScopedSpan span("serve.start");
    d->server->Start();
  }
  d->http = std::make_unique<nn::HttpServer>(d->server.get());
  ScopedSpan span("net.start");
  d->http->Start();
}

/// Value of `key` in an X-Nimble-Trace echo ("id=7;queue_us=12;..."), or
/// -1 when absent.
double EchoField(const std::string& echo, const std::string& key) {
  std::string needle = key + "=";
  size_t at = 0;
  while ((at = echo.find(needle, at)) != std::string::npos) {
    if (at == 0 || echo[at - 1] == ';') {
      return std::strtod(echo.c_str() + at + needle.size(), nullptr);
    }
    at += needle.size();
  }
  return -1.0;
}

struct LoopResult {
  std::vector<double> latency_ms;
  std::vector<int64_t> done_ns;  // per reply, with its token count
  std::vector<double> done_tokens;
  std::vector<int> item;  // pool index per reply
  int64_t ok = 0;
  int64_t non200 = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  double elapsed_s = 0.0;
  // From the X-Nimble-Trace echo (traced run).
  std::vector<double> net_overhead_us, queue_ms, exec_ms, kernel_ms;

  void Merge(const LoopResult& o) {
    latency_ms.insert(latency_ms.end(), o.latency_ms.begin(),
                      o.latency_ms.end());
    done_ns.insert(done_ns.end(), o.done_ns.begin(), o.done_ns.end());
    done_tokens.insert(done_tokens.end(), o.done_tokens.begin(),
                       o.done_tokens.end());
    item.insert(item.end(), o.item.begin(), o.item.end());
    ok += o.ok;
    non200 += o.non200;
    net_overhead_us.insert(net_overhead_us.end(), o.net_overhead_us.begin(),
                           o.net_overhead_us.end());
    queue_ms.insert(queue_ms.end(), o.queue_ms.begin(), o.queue_ms.end());
    exec_ms.insert(exec_ms.end(), o.exec_ms.begin(), o.exec_ms.end());
    kernel_ms.insert(kernel_ms.end(), o.kernel_ms.begin(), o.kernel_ms.end());
  }
};

/// One request over `client`; checks the reply and counts the outcome.
void Send(nn::BlockingHttpClient& client, const Item& item, bool echo,
          int64_t parent, int64_t request, Outcome* outcome,
          LoopResult* out) {
  std::vector<std::pair<std::string, std::string>> headers = {
      {"Content-Type", "application/octet-stream"},
      {"Accept", "application/octet-stream"},
      {"X-Nimble-Shape", item.shape_header},
      {"X-Nimble-Length", std::to_string(item.len)}};
  if (echo) headers.emplace_back("X-Nimble-Trace", "1");
  int64_t t0 = NowNs();
  nn::BlockingHttpClient::Response response =
      client.Request("POST", "/v1/models/m:predict", item.body, headers);
  int64_t t1 = NowNs();
  SpanRecorder::Global().Record("net.http_request", t0, t1, parent, request);
  if (!response.ok || response.status != 200) {
    if (response.ok) out->non200++;
    outcome->Fail();
    return;
  }
  if (response.body.size() != item.expected.nbytes() ||
      std::memcmp(response.body.data(), item.expected.raw_data(),
                  response.body.size()) != 0) {
    outcome->Wrong();
    return;
  }
  outcome->Ok();
  double rtt_ms = Ms(t1 - t0);
  out->latency_ms.push_back(rtt_ms);
  out->done_ns.push_back(t1);
  out->done_tokens.push_back(static_cast<double>(item.len));
  out->item.push_back(item.index);
  out->ok++;
  const std::string* trace = echo ? response.FindHeader("x-nimble-trace")
                                  : nullptr;
  if (trace != nullptr) {
    double queue_us = EchoField(*trace, "queue_us");
    double exec_us = EchoField(*trace, "exec_us");
    out->net_overhead_us.push_back(rtt_ms * 1e3 - queue_us - exec_us);
    out->queue_ms.push_back(queue_us / 1e3);
    out->exec_ms.push_back(exec_us / 1e3);
    out->kernel_ms.push_back(EchoField(*trace, "kernel_us") / 1e3);
  }
}

/// kClients closed-loop callers for `seconds`; client c draws its items
/// from its own seeded stream.
LoopResult ClosedLoop(uint16_t port, const std::vector<Item>& pool,
                      uint64_t seed, double seconds, bool echo,
                      Outcome* outcome) {
  ScopedSpan span("closed_loop");
  const int64_t parent = span.id();
  std::vector<LoopResult> per_client(kClients);
  std::atomic<int64_t> seq{0};
  const int64_t start_ns = NowNs();
  Clock::time_point t0 = Clock::now();
  Clock::time_point deadline = t0 + std::chrono::duration_cast<
                                        Clock::duration>(
                                        std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      nn::BlockingHttpClient client("127.0.0.1", port);
      Rng rng = Stream(seed, 10 + static_cast<uint64_t>(c));
      while (Clock::now() < deadline) {
        const Item& item = pool[rng.Next() % pool.size()];
        Send(client, item, echo, parent, seq.fetch_add(1), outcome,
             &per_client[c]);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  LoopResult total;
  total.elapsed_s = SecondsSince(t0);
  total.start_ns = start_ns;
  total.end_ns = start_ns + static_cast<int64_t>(seconds * 1e9);
  for (const LoopResult& r : per_client) total.Merge(r);
  return total;
}

double SetUp(Deployment* d, const std::vector<Item>& pool, Outcome* outcome) {
  ScopedSpan span("setup");
  Clock::time_point t0 = Clock::now();
  nimble::models::LSTMModel model = nimble::models::BuildLSTM(ServedConfig());
  nimble::core::CompileOptions options;
  options.batched_entries = {model.batched_spec};
  d->compile = CompileTimed(model.module, options);
  Start(d, true);
  {
    ScopedSpan warm("net.warmup");
    nn::BlockingHttpClient client("127.0.0.1", d->http->port());
    LoopResult ignored;
    int shorts = 0, longs = 0;
    for (const Item& item : pool) {
      int& sent = item.len <= 8 ? shorts : longs;
      if (sent == kWarmupPerClass) continue;
      Send(client, item, false, warm.id(), -1, outcome, &ignored);
      sent++;
    }
  }
  return SecondsSince(t0);
}

int64_t NetCopiedBytes() {
  int64_t bytes = 0;
  for (const auto& site : nimble::obs::CopyLedgerSnapshot()) {
    std::string name = site.site;
    if (name == "http_decode" || name == "serialize") bytes += site.bytes;
  }
  return bytes;
}

}  // namespace

int RunHttpShortLong(const Options& opt, MetricSink* sink, Outcome* outcome) {
  std::vector<Item> pool = MakePool(opt.seed);

  std::vector<double> setup_s;
  auto d = std::make_unique<Deployment>();
  for (int i = 0; i < kSetups; ++i) {
    if (i > 0) d = std::make_unique<Deployment>();
    setup_s.push_back(SetUp(d.get(), pool, outcome));
  }
  sink->Set("setup_s", Median(setup_s), "s");
  ClosedLoop(d->http->port(), pool, opt.seed, kWarmupSeconds, false, outcome);

  const std::vector<std::shared_ptr<nimble::vm::Executable>> execs = {
      d->compile.result.executable};
  DispatchTotals dispatch_before = ReadDispatch(execs);
  AllocTotals alloc_before = SumScopes(d->server->MemoryScopes(), "model:");
  ns::StatsSnapshot s0 = d->server->stats("m");
  int64_t copied_before = NetCopiedBytes();

  LoopResult loop = ClosedLoop(d->http->port(), pool, opt.seed, WorkSeconds(opt),
                               opt.trace, outcome);

  ns::StatsSnapshot s1 = d->server->stats("m");
  // p50_ms is the median over sub-windows of each sub-window's median
  // reply time. p99_ms is the tail of the length mix: every reply counts
  // at its pool item's median reply time over the loop (each item is sent
  // about four times a second), and p99_ms is the 99th percentile of
  // those. A single reply's time also holds whatever preempted the
  // server's threads while it was in flight; on a shared host those
  // stalls moved the raw p99 by up to half from run to run. The raw tail
  // of single replies, which also shows stalls the program causes, is the
  // per-layer p99_ms.whole_run.
  std::vector<std::vector<double>> window_ms(kWindows);
  for (size_t i = 0; i < loop.done_ns.size(); ++i) {
    if (loop.done_ns[i] < loop.start_ns || loop.done_ns[i] >= loop.end_ns) {
      continue;
    }
    size_t w = static_cast<size_t>((loop.done_ns[i] - loop.start_ns) *
                                   kWindows / (loop.end_ns - loop.start_ns));
    window_ms[w].push_back(loop.latency_ms[i]);
  }
  std::vector<double> p50s;
  for (const std::vector<double>& samples : window_ms) {
    if (!samples.empty()) p50s.push_back(Median(samples));
  }
  std::vector<std::vector<double>> per_item(pool.size());
  for (size_t i = 0; i < loop.item.size(); ++i) {
    per_item[loop.item[i]].push_back(loop.latency_ms[i]);
  }
  std::vector<double> item_ms(pool.size(), 0.0);
  for (size_t k = 0; k < pool.size(); ++k) {
    if (!per_item[k].empty()) item_ms[k] = Median(per_item[k]);
  }
  std::vector<double> typical_ms;
  typical_ms.reserve(loop.item.size());
  for (int k : loop.item) typical_ms.push_back(item_ms[k]);
  Tail tail = TailPercentile(typical_ms, 99.0);
  Tail raw = TailPercentile(loop.latency_ms, 99.0);
  sink->Set("p50_ms", Median(p50s), "ms");
  sink->Set("p99_ms", tail.value, "ms");
  sink->Set("p99_ms.whole_run", raw.value, "ms");
  std::printf("  p50_ms: median of %zu sub-window medians; p99_ms: p%g of "
              "%zu replies at their item's median time (%zu beyond); "
              "p99_ms.whole_run: p%g of single replies\n",
              p50s.size(), tail.percentile, tail.samples, tail.beyond,
              raw.percentile);
  WindowRates rates = RatesPerWindow(loop.done_ns, loop.done_tokens,
                                     loop.start_ns, loop.end_ns, kWindows);
  sink->Set("throughput_rps", Median(rates.rps), "1/s");
  sink->Set("us_per_token", Median(rates.us_per_token), "us");
  std::printf("  closed loop: %d clients, %lld replies in %.2f s, median "
              "%.1f req/s over %d sub-windows\n",
              kClients, static_cast<long long>(loop.ok), loop.elapsed_s,
              Median(rates.rps), kWindows);

  // Per-layer probes.
  ReportCompile(sink, "served", d->compile);
  ReportCodegen(sink, dispatch_before, ReadDispatch(execs));
  ReportRuntime(sink, alloc_before, SumScopes(d->server->MemoryScopes(), "model:"));
  double steps = static_cast<double>(s1.continuous_steps - s0.continuous_steps);
  double splices = static_cast<double>(s1.splices - s0.splices);
  double row_steps =
      static_cast<double>(s1.continuous_row_steps - s0.continuous_row_steps);
  double idle = static_cast<double>(s1.continuous_idle_row_steps -
                                    s0.continuous_idle_row_steps);
  auto sum = [](double mean, int64_t count) {
    return mean * static_cast<double>(count);
  };
  if (steps > 0) {
    sink->Set("batch.step_ms",
              (sum(s1.mean_step_duration_us, s1.continuous_steps) -
               sum(s0.mean_step_duration_us, s0.continuous_steps)) /
                  steps / 1e3,
              "ms");
    sink->Set("batch.slot_occupancy",
              (sum(s1.mean_slot_occupancy, s1.continuous_steps) -
               sum(s0.mean_slot_occupancy, s0.continuous_steps)) /
                  steps,
              "count");
  }
  if (row_steps > 0) sink->Set("batch.idle_slot_ratio", idle / row_steps, "ratio");
  if (splices > 0) {
    sink->Set("batch.splice_wait_ms",
              (sum(s1.mean_splice_wait_us, s1.splices) -
               sum(s0.mean_splice_wait_us, s0.splices)) /
                  splices / 1e3,
              "ms");
  }
  sink->Set("serve.rejected", static_cast<double>(s1.rejected), "count");
  sink->Set("net.non200", static_cast<double>(loop.non200), "count");
  sink->Set("net.copied_bytes_per_req",
            loop.ok > 0 ? static_cast<double>(NetCopiedBytes() - copied_before) /
                              static_cast<double>(loop.ok)
                        : 0.0,
            "bytes");
  if (opt.trace) {
    sink->Set("net.overhead_us.p50", Median(loop.net_overhead_us), "us");
    sink->Set("net.overhead_us.p99", Percentile(loop.net_overhead_us, 99.0),
              "us");
    sink->Set("serve.queue_wait_ms.p50", Median(loop.queue_ms), "ms");
    sink->Set("serve.queue_wait_ms.p99", Percentile(loop.queue_ms, 99.0), "ms");
    sink->Set("vm.exec_ms.p50", Median(loop.exec_ms), "ms");
    sink->Set("vm.kernel_ms.p50", Median(loop.kernel_ms), "ms");

    // Telemetry A/B: fresh server and front end per arm, same executable.
    const int rounds = std::clamp(
        static_cast<int>(ABSeconds(opt) / (3 * (kABArmSeconds + 0.05))), 3,
        9);
    RunTelemetryAB(sink, rounds, [&](bool telemetry, bool spans) {
      Deployment ab;
      ab.compile = d->compile;
      Start(&ab, telemetry);
      LoopResult r = ClosedLoop(ab.http->port(), pool, opt.seed,
                                kABArmSeconds, spans, outcome);
      return r.ok > 0 ? r.elapsed_s / static_cast<double>(r.ok) : 1.0;
    });
  }
  sink->Set("peak_rss_mb", PeakRssMb(), "MB");
  return 0;
}

}  // namespace perfbench
