// perfbench: runs one workload and prints its metrics.
//
//   perfbench --workload <serve_prod_mix|http_short_long>
//             --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Prints the host fingerprint and human-readable detail, then, as the last
// line, one JSON object {"correct", "attempted", "failed", "metrics"} with
// every metric the workload measured ({"value", "unit"} each). --trace 1
// additionally records the benchmark's spans, prints self time per span
// name and writes them to <out-dir>/trace_<workload>_seed<n>.json as a
// Chrome trace. Exits 1 when any output was wrong, 2 on bad arguments.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "perfbench/src/common.h"
#include "perfbench/src/host.h"
#include "perfbench/src/spans.h"

namespace {

using namespace perfbench;  // NOLINT

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <serve_prod_mix|http_short_long> "
               "--seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]\n");
  return 2;
}

/// Total self time and count per span name, largest first.
void PrintSelfTimes(const std::vector<Span>& spans) {
  std::vector<int64_t> self = SelfTimesNs(spans);
  std::map<std::string, std::pair<int64_t, int64_t>> by_name;
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& entry = by_name[spans[i].name];
    entry.first += self[i];
    entry.second++;
  }
  std::vector<std::pair<int64_t, std::string>> order;
  for (const auto& [name, entry] : by_name) order.emplace_back(entry.first, name);
  std::sort(order.rbegin(), order.rend());
  std::printf("  self time by span (%zu spans):\n", spans.size());
  for (const auto& [ns, name] : order) {
    std::printf("    %-20s %10.3f ms over %lld spans\n", name.c_str(),
                static_cast<double>(ns) / 1e6,
                static_cast<long long>(by_name[name].second));
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value, &end);
      have_seconds = end != value && *end == '\0' && opt.seconds > 0.0;
    } else if (key == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage();
      }
      opt.trace = value[0] == '1';
    } else if (key == "--out-dir") {
      opt.out_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || !have_workload || !have_seed || !have_seconds) {
    return Usage();
  }
  int (*run)(const Options&, MetricSink*, Outcome*) = nullptr;
  if (opt.workload == "serve_prod_mix") run = RunServeProdMix;
  if (opt.workload == "http_short_long") run = RunHttpShortLong;
  if (run == nullptr) return Usage();

  HostInfo host = ProbeHost();
  std::printf("host: %s\n", HostJson(host).c_str());
  std::printf("workload %s, seed %llu, %.1f s, trace %d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  std::fflush(stdout);

  SpanRecorder::Global().set_enabled(opt.trace);
  MetricSink sink;
  Outcome outcome;
  const CpuTimes cpu_before = ReadCpuTimes();
  int rc = run(opt, &sink, &outcome);
  if (rc != 0) return rc;
  const double steal_pct = StealPercent(cpu_before, ReadCpuTimes());
  SpanRecorder::Global().set_enabled(false);
  std::printf("  host CPU time stolen by the hypervisor during the run: "
              "%.1f%%\n",
              steal_pct);

  if (opt.trace) {
    std::vector<Span> spans = SpanRecorder::Global().Snapshot();
    PrintSelfTimes(spans);
    std::string path = opt.out_dir + "/trace_" + opt.workload + "_seed" +
                       std::to_string(opt.seed) + ".json";
    std::string meta = "{\"workload\": \"" + opt.workload +
                       "\", \"seed\": " + std::to_string(opt.seed) +
                       ", \"host\": " + HostJson(host) +
                       ", \"steal_pct\": " + std::to_string(steal_pct) + "}";
    if (!WriteChromeTrace(path, spans, meta)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 3;
    }
    std::printf("  spans written to %s\n", path.c_str());
  }

  const int64_t attempted = outcome.attempted.load();
  const int64_t failed = outcome.failed.load();
  const int64_t wrong = outcome.wrong.load();
  std::printf("  operations: %lld attempted, %lld failed (%lld wrong "
              "outputs), failed ratio %.6f\n",
              static_cast<long long>(attempted),
              static_cast<long long>(failed), static_cast<long long>(wrong),
              attempted > 0 ? static_cast<double>(failed) / attempted : 0.0);
  for (const auto& [name, m] : sink.metrics()) {
    std::printf("  %-36s %16.6f %s\n", name.c_str(), m.value, m.unit.c_str());
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "metric %s is not finite\n", name.c_str());
      return 3;
    }
  }
  std::string json = "{\"correct\": ";
  json += wrong == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted) +
          ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : sink.metrics()) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    json += (first ? "\"" : ", \"") + name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return wrong == 0 ? 0 : 1;
}
