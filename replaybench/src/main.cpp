// replay_bench: the capture-replay benchmark's measuring program.
//
//   replay_bench --workload NAME --seed N --seconds S --trace 0|1
//                [--scale F] [--span-dir DIR]
//
// --trace 0 measures the end-to-end metrics: set-up time, as-fast-as-
// possible replay throughput of every topology (repeated passes within
// about S seconds), s3 CPU per packet, the paced s3 open-loop detection
// latency and the inline engine's peak state. --trace 1 runs one untraced
// and one traced replay per topology and reports the per-layer metrics.
// Either way the only stdout line is one JSON object with the metrics,
// the correctness outputs and the run's provenance; run.py validates it
// against BENCHMARK.json and prints it as a table.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_logic.h"
#include "topologies.h"
#include "workloads.h"

#ifndef REPLAYBENCH_BUILD_TYPE
#define REPLAYBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace replaybench;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> v) { return Summarize(std::move(v)).p50; }

struct Metric {
  double value = 0.0;
  std::string unit;
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// {"name": value(v), ...} over a map, in key order.
template <typename Map, typename Fn>
std::string JsonObject(const Map& map, Fn value) {
  std::string out = "{";
  for (const auto& [name, v] : map) {
    if (out.size() > 1) out += ", ";
    out += JsonString(name) + ": " + value(v);
  }
  return out + "}";
}

/// The run's result, printed as the only stdout line.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::map<std::string, Metric> reported;  // measured, not gated
  std::map<std::string, std::string> info;       // provenance, as text
  std::map<std::string, double> checks;          // reported failure counts
  std::vector<std::string> problems;

  void Put(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void Note(const std::string& name, double value, const std::string& unit) {
    reported[name] = {value, unit};
  }
  void Fail(const std::string& why) {
    ++failed;
    problems.push_back(why);
  }
  void Print() const {
    std::string out = "{\"correct\": ";
    out += failed == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    const auto metric = [](const Metric& m) {
      return "{\"value\": " + JsonNumber(m.value) +
             ", \"unit\": " + JsonString(m.unit) + "}";
    };
    out += ", \"metrics\": " + JsonObject(metrics, metric);
    out += ", \"reported\": " + JsonObject(reported, metric);
    out += ", \"checks\": " + JsonObject(checks, JsonNumber);
    out += ", \"info\": " + JsonObject(info, JsonString);
    out += ", \"problems\": [";
    for (size_t i = 0; i < problems.size(); ++i) {
      out += (i == 0 ? "" : ", ") + JsonString(problems[i]);
    }
    out += "]}";
    std::printf("%s\n", out.c_str());
  }
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  double scale = 1.0;
  std::string span_dir;
};

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (flag == "--workload") {
      o->workload = v;
    } else if (flag == "--seed") {
      o->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      o->seconds = std::atof(v);
    } else if (flag == "--trace") {
      o->trace = std::atoi(v);
    } else if (flag == "--scale") {
      o->scale = std::atof(v);
    } else if (flag == "--span-dir") {
      o->span_dir = v;
    } else {
      return false;
    }
  }
  return !o->workload.empty() && o->scale > 0.0 &&
         (o->trace == 0 || o->trace == 1);
}

void Describe(const WorkloadSpec& w, const Capture& c, Report& report) {
  report.info["workload"] = w.name;
  report.info["why"] = w.why;
  report.info["soak_config"] = DescribeConfig(w.config);
  report.info["packets"] = std::to_string(c.Packets());
  report.info["sip_share"] = JsonNumber(
      static_cast<double>(c.sip_packets) / static_cast<double>(c.Packets()));
  report.info["calls"] = std::to_string(c.calls);
  report.info["paced_rate_pkt_s"] = JsonNumber(w.paced_rate);
  report.info["cpu_count"] =
      std::to_string(std::thread::hardware_concurrency());
  report.info["compiler"] = std::string("g++ ") + __VERSION__;
  report.info["build_type"] = REPLAYBENCH_BUILD_TYPE;
}

/// Cross-topology correctness: each sharded topology's canonical alerts
/// against the inline reference, plus inline against the online soak.
/// A nonzero count is a reported program defect, not a benchmark failure.
size_t AlertMismatch(const std::vector<CanonicalAlert>& reference,
                     const std::map<std::string, std::vector<CanonicalAlert>>&
                         first_by_topology,
                     uint64_t online_alerts, Report& report) {
  size_t mismatch = 0;
  for (const auto& [name, alerts] : first_by_topology) {
    if (name == "inline") continue;
    const size_t d = SymmetricDifference(alerts, reference);
    mismatch += d;
    for (const CanonicalAlert& a : OnlyIn(alerts, reference)) {
      report.info["mismatch." + name + ".extra"] +=
          std::to_string(a.when_ns) + "ns " + a.text + "; ";
    }
    for (const CanonicalAlert& a : OnlyIn(reference, alerts)) {
      report.info["mismatch." + name + ".missing"] +=
          std::to_string(a.when_ns) + "ns " + a.text + "; ";
    }
  }
  const auto inline_count = static_cast<uint64_t>(reference.size());
  mismatch += inline_count > online_alerts ? inline_count - online_alerts
                                           : online_alerts - inline_count;
  return mismatch;
}

void AddFalseAlerts(const WorkloadSpec& w, const Capture& c,
                    const std::vector<CanonicalAlert>& reference,
                    Report& report) {
  report.checks["alerts_per_call"] =
      static_cast<double>(reference.size()) / static_cast<double>(c.calls);
  if (w.attack_free) {
    report.checks["false_alerts"] = static_cast<double>(reference.size());
    report.checks["false_alerts_per_call"] = report.checks["alerts_per_call"];
  }
}

/// Compares one replay with the first replay of its topology.
void CheckReplay(const Topology& t, const ReplayResult& r,
                 const Capture& capture,
                 std::map<std::string, std::vector<CanonicalAlert>>& first,
                 Report& report) {
  ++report.attempted;
  if (!r.source_ok || r.packets != capture.Packets()) {
    report.Fail(std::string(t.name) + " replay lost packets");
  }
  const auto it = first.find(t.name);
  if (it == first.end()) {
    first[t.name] = r.alerts;
  } else if (it->second != r.alerts) {
    report.Fail(std::string(t.name) +
                " replay raised different alerts than its first replay");
  }
}

/// Capture generations per end-to-end run, paced passes per run, and the
/// timed replay passes per sharded block that run even past the window.
constexpr int kGenerations = 3;
constexpr int kPacedPasses = 6;
constexpr int kMinBlockPasses = 2;

int RunEndToEnd(const Options& o, const WorkloadSpec& w, Report& report) {
  const int64_t start = NowNs();
  // Set-up, part one: generate and encode the capture, kGenerations times
  // (every one must give the same bytes); the median counts.
  Capture capture;
  std::vector<double> generate_s;
  for (int k = 0; k < kGenerations; ++k) {
    const int64_t t0 = NowNs();
    Capture generated = GenerateCapture(w);
    generate_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    ++report.attempted;
    if (k == 0) {
      capture = std::move(generated);
    } else if (generated.pcap != capture.pcap) {
      report.Fail("generation " + std::to_string(k) +
                  " gave a different capture from the same seed");
    }
  }
  Describe(w, capture, report);
  const int64_t first_ns = capture.when_ns.front();

  StatePeaks peaks;
  const ReplayResult reference = SampledInlineReplay(
      capture, BuildEngine(kTopologies[0], first_ns), &peaks);
  ++report.attempted;
  if (!reference.source_ok || reference.packets != capture.Packets() ||
      !reference.timestamps_match) {
    report.Fail("reference inline replay did not deliver the capture as "
                "recorded");
  }

  // Set-up, part two, and the timed passes. Every topology is sampled in
  // more than one stretch of the run, so a slow spell of the shared host
  // lands on all of them instead of deciding one topology's figure: two
  // rounds of blocks over the sharded topologies, with a slot of inline
  // passes before each block and after the last. The inline engine has no
  // threads and lives across slots; a sharded engine is built and warmed
  // just before its block and torn down after it, so no idle worker
  // competes with a timed replay. The first round's engine builds count to
  // set-up; the last s3 engine also runs the paced passes.
  const double paced_reserve_s =
      1.2 * kPacedPasses * static_cast<double>(capture.Packets()) /
      w.paced_rate;
  const int64_t deadline =
      start + static_cast<int64_t>((o.seconds - paced_reserve_s) * 1e9);
  constexpr int kRounds = 2;
  constexpr int kSlots = kRounds * 3 + 1;
  const int block_passes = (w.passes + kRounds - 1) / kRounds;
  const int slot_passes = (w.passes + kSlots - 1) / kSlots;
  double engines_ready_s = 0.0;
  std::map<std::string, std::vector<double>> pkt_s;
  std::map<std::string, std::vector<double>> stolen;  // CPUs, per pass
  std::map<std::string, std::vector<CanonicalAlert>> first;
  std::vector<double> s3_cpu_us;
  std::vector<double> detect_p50, detect_tail, late_p50, late_tail;
  std::vector<double> paced_stolen;
  Summary detect, late;
  size_t unattributed = 0;
  const auto timed = [&](const Topology& t, Engine& engine, int pass) {
    const ReplayResult r = TimedReplay(capture, engine, pass);
    pkt_s[t.name].push_back(r.PacketsPerSecond());
    stolen[t.name].push_back(r.steal_s / r.wall_s);
    if (&t == &kS3) {
      s3_cpu_us.push_back(r.cpu_s * 1e6 / static_cast<double>(r.packets));
    }
    CheckReplay(t, r, capture, first, report);
  };
  const Topology& inline_topology = kTopologies[0];
  Engine inline_engine = BuildEngine(inline_topology, first_ns);
  engines_ready_s += inline_engine.ready_ms / 1e3;
  int inline_pass = 0;
  const auto inline_slot = [&] {
    for (int k = 0; k < slot_passes && (k == 0 || NowNs() < deadline); ++k) {
      timed(inline_topology, inline_engine, inline_pass++);
    }
  };
  for (int round = 0; round < kRounds; ++round) {
    for (const Topology& t : kTopologies) {
      if (t.shards == 0) continue;
      inline_slot();
      Engine engine = BuildEngine(t, first_ns);
      if (round == 0) engines_ready_s += engine.ready_ms / 1e3;
      int pass = 0;
      while (pass < block_passes &&
             (pass < kMinBlockPasses || NowNs() < deadline)) {
        timed(t, engine, pass++);
      }
      if (&t != &kS3 || round != kRounds - 1) continue;
      // Paced open-loop passes through the same warm engine; each pass's
      // latencies and lateness are summarized on their own.
      for (int k = 0; k < kPacedPasses; ++k) {
        const PacedResult paced =
            PacedReplay(capture, engine, w.paced_rate, pass++);
        ++report.attempted;
        if (!paced.source_ok) report.Fail("paced replay source error");
        if (paced.alerts != first["s3"]) {
          report.Fail("paced s3 replay raised different alerts than timed s3");
        }
        detect = Summarize(paced.detection.latency_ms);
        late = Summarize(paced.late_us);
        paced_stolen.push_back(paced.steal_s / paced.wall_s);
        detect_p50.push_back(detect.p50);
        detect_tail.push_back(detect.tail);
        late_p50.push_back(late.p50);
        late_tail.push_back(late.tail);
        unattributed = paced.detection.unattributed;
      }
    }
  }
  inline_slot();
  if (reference.alerts != first["inline"]) {
    report.Fail("sampled inline replay raised different alerts");
  }
  std::vector<double> setup_s;
  for (const double g : generate_s) setup_s.push_back(g + engines_ready_s);
  const double measured_s = static_cast<double>(NowNs() - start) / 1e9;

  // Each figure is the median over the passes during which the host stole
  // the least CPU (CleanMedian): the cleaner half of them.
  // Figures whose spread between runs on a shared host exceeded every
  // bound the benchmark may set are reported, not gated (README.md).
  report.Put("setup_s", Median(setup_s), "s");
  for (const Topology& t : kTopologies) {
    report.Note(std::string(t.name) + "_pkt_s",
                CleanMedian(pkt_s[t.name], stolen[t.name]), "pkt/s");
  }
  report.Note("s3_cpu_us_pkt", CleanMedian(s3_cpu_us, stolen["s3"]), "us");
  report.Note("s3_detect_p50_ms", CleanMedian(detect_p50, paced_stolen), "ms");
  report.Note("s3_detect_tail_ms", CleanMedian(detect_tail, paced_stolen),
              "ms");
  report.Put("peak_state_mb", static_cast<double>(peaks.total_bytes) / 1e6,
             "MB");

  report.info["measured_s"] = JsonNumber(measured_s);
  report.info["setup_samples"] =
      std::to_string(generate_s.size()) + " generations, engines built once";
  report.info["engines_ready_s"] = JsonNumber(engines_ready_s);
  report.info["s3_detect_samples"] =
      std::to_string(detect.n) + " per pass, " +
      std::to_string(kPacedPasses) + " passes";
  report.info["s3_detect_tail_pct"] = JsonNumber(detect.tail_pct);
  report.info["s3_detect_unattributed"] = std::to_string(unattributed);
  report.info["pacer_late_us_p50"] =
      JsonNumber(CleanMedian(late_p50, paced_stolen));
  report.info["pacer_late_us_tail"] =
      JsonNumber(CleanMedian(late_tail, paced_stolen));
  report.info["pacer_late_tail_pct"] = JsonNumber(late.tail_pct);
  report.info["peak_live_calls"] = std::to_string(peaks.calls);
  for (const auto& [name, v] : pkt_s) {
    report.info["spread." + name + "_pkt_s"] =
        "n=" + std::to_string(v.size()) + " min=" +
        JsonNumber(*std::min_element(v.begin(), v.end())) +
        " median=" + JsonNumber(Median(v)) +
        " max=" + JsonNumber(*std::max_element(v.begin(), v.end()));
  }
  for (const auto& [name, v] : stolen) {
    report.info["stolen_cpus." + name] =
        "min=" + JsonNumber(*std::min_element(v.begin(), v.end())) +
        " median=" + JsonNumber(Median(v)) +
        " max=" + JsonNumber(*std::max_element(v.begin(), v.end()));
  }
  report.info["spread.s3_detect_tail_ms"] = "";
  report.info["stolen_cpus.paced"] = "";
  for (size_t i = 0; i < detect_tail.size(); ++i) {
    report.info["spread.s3_detect_tail_ms"] += JsonNumber(detect_tail[i]) + " ";
    report.info["stolen_cpus.paced"] += JsonNumber(paced_stolen[i]) + " ";
  }
  report.info["spread.generate_s"] =
      "min=" +
      JsonNumber(*std::min_element(generate_s.begin(), generate_s.end())) +
      " max=" +
      JsonNumber(*std::max_element(generate_s.begin(), generate_s.end()));
  report.info["alerts.online_soak"] = std::to_string(capture.online_alerts);
  for (const auto& [name, alerts] : first) {
    report.info["alerts." + name] = std::to_string(alerts.size());
  }
  report.checks["alert_mismatch"] = static_cast<double>(
      AlertMismatch(reference.alerts, first, capture.online_alerts, report));
  AddFalseAlerts(w, capture, reference.alerts, report);
  return 0;
}

/// The unit of a traced-replay metric, from its name's convention.
const char* UnitOf(const std::string& name) {
  const auto ends = [&name](std::string_view suffix) {
    return name.size() >= suffix.size() &&
           name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
               0;
  };
  if (name.find("_ns") != std::string::npos) return "ns";
  if (name.find("_us") != std::string::npos) return "us";
  if (ends("_ms")) return "ms";
  if (ends("_frac") || ends("_skew")) return "ratio";
  return "count";
}

int RunTraced(const Options& o, const WorkloadSpec& w, Report& report) {
  const Capture capture = GenerateCapture(w);
  ++report.attempted;
  Describe(w, capture, report);
  const int64_t start_ns = capture.when_ns.front();

  StatePeaks peaks;
  const ReplayResult reference = SampledInlineReplay(
      capture, BuildEngine(kTopologies[0], start_ns), &peaks);
  ++report.attempted;
  if (!reference.source_ok || reference.packets != capture.Packets() ||
      !reference.timestamps_match) {
    report.Fail("reference inline replay did not deliver the capture as "
                "recorded");
  }
  const auto put = [&report](const std::string& name, double v,
                             const char* unit) { report.Put(name, v, unit); };
  put("vids.fact.peak_bytes", static_cast<double>(peaks.fact_bytes), "B");
  put("vids.fact.peak_calls", static_cast<double>(peaks.calls), "count");
  put("vids.fact.peak_tombstones", static_cast<double>(peaks.tombstones),
      "count");
  put("vids.fact.peak_keyed", static_cast<double>(peaks.keyed), "count");
  put("vids.fact.peak_media_index", static_cast<double>(peaks.media_index),
      "count");
  put("behavior.peak_profiles", static_cast<double>(peaks.behavior_profiles),
      "count");
  put("behavior.peak_bytes", static_cast<double>(peaks.behavior_bytes), "B");
  report.info["peak_live_calls"] = std::to_string(peaks.calls);

  std::map<std::string, std::vector<CanonicalAlert>> first;
  double untraced_inline_s = 0.0, traced_inline_s = 0.0;
  for (const Topology& t : kTopologies) {
    Engine plain_engine = BuildEngine(t, start_ns);
    const ReplayResult plain = TimedReplay(capture, plain_engine, 0);
    const std::string span_path =
        o.span_dir.empty()
            ? ""
            : o.span_dir + "/" + w.name + "." + t.name + ".spans.tsv";
    const TracedResult traced =
        TracedReplay(capture, BuildEngine(t, start_ns), span_path);
    report.attempted += 2;
    if (traced.replay.alerts != plain.alerts) {
      report.Fail(std::string(t.name) +
                  ": traced replay raised different alerts than untraced");
    }
    if (!traced.replay.source_ok ||
        traced.replay.packets != capture.Packets()) {
      report.Fail(std::string(t.name) + " traced replay lost packets");
    }
    first[t.name] = plain.alerts;
    if (t.shards == 0) {
      untraced_inline_s = plain.wall_s;
      traced_inline_s = traced.replay.wall_s;
    }
    for (const auto& [name, v] : traced.metrics) put(name, v, UnitOf(name));
  }
  for (const auto& [name, v] : StandaloneParsePasses(capture)) {
    put(name, v, "ns");
  }
  Engine paced_engine = BuildEngine(kS3, start_ns);
  SpanRecorder paced_spans(1 << 18);
  const PacedResult paced =
      PacedReplay(capture, paced_engine, w.paced_rate, 0, &paced_spans);
  if (!o.span_dir.empty()) {
    paced_spans.WriteTsv(o.span_dir + "/" + w.name + ".s3-paced.spans.tsv");
  }
  ++report.attempted;
  if (paced.alerts != first["s3"]) {
    report.Fail("paced s3 replay raised different alerts than timed s3");
  }
  const Summary late = Summarize(paced.late_us);
  const Summary detect = Summarize(paced.detection.latency_ms);
  put("s3.detect_p50_ms", detect.p50, "ms");
  put("s3.detect_tail_ms", detect.tail, "ms");
  put("pacer.late_us.p50", late.p50, "us");
  put("pacer.late_us.tail", late.tail, "us");
  put("trace.overhead_frac",
      untraced_inline_s > 0.0
          ? (traced_inline_s - untraced_inline_s) / untraced_inline_s
          : 0.0,
      "ratio");
  const double mismatch = static_cast<double>(
      AlertMismatch(reference.alerts, first, capture.online_alerts, report));
  report.checks["alert_mismatch"] = mismatch;
  AddFalseAlerts(w, capture, reference.alerts, report);
  put("check.alert_mismatch", mismatch, "count");
  put("check.alerts_per_call", report.checks["alerts_per_call"], "1/call");
  report.info["s3_paced_late_tail_pct"] = JsonNumber(late.tail_pct);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!ParseArgs(argc, argv, &o)) {
    std::fprintf(stderr,
                 "usage: replay_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--scale F] [--span-dir DIR]\n");
    return 2;
  }
  WorkloadSpec workload;
  if (!MakeWorkload(o.workload, o.seed, o.scale, &workload)) {
    std::fprintf(stderr, "unknown workload: %s\n", o.workload.c_str());
    return 2;
  }
  Report report;
  const int rc = o.trace == 0 ? RunEndToEnd(o, workload, report)
                              : RunTraced(o, workload, report);
  report.Print();
  return rc;
}
