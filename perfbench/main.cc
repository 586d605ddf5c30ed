/// \file main.cc
/// \brief The benchmark binary: runs one workload and prints its metrics.
///
///   perfbench --workload NAME --seed N --seconds S --trace 0|1
///                    --serve-bin PATH --work-dir DIR [--cache-was-warm 0|1]
///   perfbench --warm-cache
///
/// Workloads: fit_pool, serve_unique, serve_hot, serve_multitask. An
/// untraced run prints the end-to-end metrics, a traced run the per-layer
/// metrics (and writes DIR/trace.json, Chrome trace-event format). Every
/// metric is printed by name with its unit; a JSON detail line carries
/// the host fingerprint, per-phase sent/succeeded/failed counts and the
/// correctness checks; the last line is the result object. The exit code
/// is non-zero when any operation failed or a check disagreed.
///
/// A run first waits, at most kQuietWaitSeconds, until the hypervisor has
/// stopped stealing CPU from this shared host; set-up time counts from the
/// end of that wait.

#include <sys/resource.h>
#include <unistd.h>

#include <charconv>
#include <chrono>
#include <csignal>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>

#include "eval/backbone.h"
#include "stats.h"
#include "tensor/isa.h"
#include "workloads.h"

namespace perfbench {

uint64_t SubSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed ^ (salt * 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::shared_ptr<goggles::features::FeatureExtractor> LoadBackbone() {
  goggles::eval::BackboneOptions options;
  auto extractor = goggles::eval::GetPretrainedExtractor(options);
  extractor.status().Abort("backbone");
  return *extractor;
}

double SelfPeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double SelfCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

double StealSeconds() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double v[8] = {};
  stat >> cpu;
  for (double& x : v) stat >> x;
  return cpu == "cpu" ? v[7] / static_cast<double>(sysconf(_SC_CLK_TCK)) : 0.0;
}

double SpanMedianMs(const Tracer& tracer, const std::string& name) {
  const auto durations = tracer.DurationsMs();
  auto it = durations.find(name);
  return it == durations.end() ? 0.0 : Median(it->second);
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"data.make_tasks_s", "s"},
      {"features.pool_maps_ms", "ms"},
      {"goggles.affinity.prepare_ms", "ms"},
      {"goggles.affinity.prepare_self_ms", "ms"},
      {"goggles.affinity.score_ms", "ms"},
      {"goggles.affinity.score_gflops", "GFLOP/s"},
      {"goggles.hierarchical.fit_ms", "ms"},
      {"goggles.base_gmm.fit_ms", "ms"},
      {"goggles.ensemble.fit_ms", "ms"},
      {"goggles.mapping.ms", "ms"},
      {"fit.unaccounted_share", "fraction"},
      {"serve.json.parse_us", "us"},
      {"serve.json.encode_us", "us"},
      {"serve.session.build_rows_ms_b1", "ms"},
      {"serve.session.build_rows_ms_b8", "ms"},
      {"features.query_extract_ms", "ms"},
      {"goggles.affinity.query_score_ms", "ms"},
      {"serve.session.infer_rows_us_b1", "us"},
      {"serve.session.infer_rows_us_b8", "us"},
      {"serve.service.handle_line_ms", "ms"},
      {"serve.unaccounted_share", "fraction"},
      {"serve.service.wait_ms_p50", "ms"},
      {"serve.pipeline.extract_mean_batch", "items/batch"},
      {"serve.pipeline.backpressured", "count"},
      {"serve.pipeline.admission_rejected", "count"},
      {"serve.registry.acquire_hit_us", "us"},
      {"serve.registry.acquire_miss_ms", "ms"},
      {"serve.artifact.load_ms", "ms"},
      {"serve.artifact.save_atomic_ms", "ms"},
      {"serve.registry.hit_ratio", "fraction"},
      {"serve.registry.evictions", "count"},
      {"serve.registry.reloads", "count"},
      {"serve.session.resident_bytes", "bytes"},
      {"bench.generator_late_ms_p99", "ms"},
      {"bench.trace_overhead_ms", "ms"},
      {"bench.trace_overhead_share", "fraction"},
  };
  return kMetrics;
}

void FinishPerLayer(const std::vector<std::pair<std::string, double>>& values,
                    WorkloadResult* result) {
  std::map<std::string, double> by_name;
  for (const auto& [name, value] : values) by_name[name] = value;  // last wins
  goggles::serve::JsonValue skipped = goggles::serve::JsonValue::MakeArray();
  for (const auto& [name, unit] : PerLayerMetrics()) {
    auto it = by_name.find(name);
    if (it == by_name.end()) skipped.Append(goggles::serve::JsonValue(name));
    result->per_layer.push_back(
        {name, it == by_name.end() ? 0.0 : it->second, unit});
  }
  result->detail.Set("not_exercised", std::move(skipped));
}

}  // namespace perfbench

namespace {

using perfbench::Metric;
using perfbench::Options;

/// Below this steal rate, in cores, the host counts as quiet.
constexpr double kQuietStealCores = 0.05;
constexpr double kQuietWaitSeconds = 4.0;

/// Samples steal in 0.5 s steps until one stays under kQuietStealCores or
/// kQuietWaitSeconds have passed. Returns whether the host got quiet and
/// sets `*waited_s`.
bool WaitForQuietHost(double* waited_s) {
  for (*waited_s = 0.0; *waited_s < kQuietWaitSeconds;) {
    const double before = perfbench::StealSeconds();
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    *waited_s += 0.5;
    if (perfbench::StealSeconds() - before <= 0.5 * kQuietStealCores) {
      return true;
    }
  }
  return false;
}

/// Shortest round-trip decimal form; non-finite values print as 0.
std::string Num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --serve-bin PATH --work-dir DIR "
               "[--cache-was-warm 0|1]\n"
               "       perfbench --warm-cache\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  std::signal(SIGPIPE, SIG_IGN);
  bool cache_was_warm = true;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--warm-cache") {
      LoadBackbone();
      return 0;
    } else if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--serve-bin" && has_value) {
      options.serve_binary = argv[++i];
    } else if (arg == "--work-dir" && has_value) {
      options.work_dir = argv[++i];
    } else if (arg == "--cache-was-warm" && has_value) {
      cache_was_warm = std::string(argv[++i]) == "1";
    } else {
      return Usage();
    }
  }
  if (options.workload.empty() || options.work_dir.empty() ||
      options.seconds <= 0) {
    return Usage();
  }
  // Timings from anything but an optimized build are not comparable.
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "error: perfbench built as '%s', not Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }

  double host_wait_s = 0.0;
  const bool host_quiet = WaitForQuietHost(&host_wait_s);
  options.run_start_us = NowMicros();
  Tracer tracer(options.trace);
  WorkloadResult result;
  if (options.workload == "fit_pool") {
    result = RunFitPool(options, &tracer);
  } else if (options.workload.rfind("serve_", 0) == 0 &&
             !options.serve_binary.empty()) {
    result = RunServe(options, &tracer);
  } else {
    return Usage();
  }

  goggles::serve::JsonValue host = goggles::serve::JsonValue::MakeObject();
  host.Set("num_cpus",
           goggles::serve::JsonValue(
               static_cast<int>(std::thread::hardware_concurrency())));
  host.Set("isa", goggles::serve::JsonValue(
                      goggles::IsaTierName(goggles::ActiveIsaTier())));
  host.Set("build_type", goggles::serve::JsonValue(PERFBENCH_BUILD_TYPE));
  host.Set("compiler", goggles::serve::JsonValue(PERFBENCH_COMPILER));
  result.detail.Set("workload", goggles::serve::JsonValue(options.workload));
  result.detail.Set(
      "seed", goggles::serve::JsonValue(static_cast<int64_t>(options.seed)));
  result.detail.Set("trace", goggles::serve::JsonValue(options.trace));
  result.detail.Set("host", std::move(host));
  result.detail.Set("backbone_cache_warm_at_start",
                    goggles::serve::JsonValue(cache_was_warm));
  result.detail.Set("waited_for_quiet_host_s",
                    goggles::serve::JsonValue(host_wait_s));
  result.detail.Set("host_quiet_at_start",
                    goggles::serve::JsonValue(host_quiet));
  result.detail.Set("attempted", goggles::serve::JsonValue(result.attempted));
  result.detail.Set("succeeded", goggles::serve::JsonValue(
                                     result.attempted - result.failed));
  result.detail.Set("failed", goggles::serve::JsonValue(result.failed));
  if (options.trace) {
    const std::string path = options.work_dir + "/trace.json";
    if (tracer.WriteChromeTrace(path)) {
      result.detail.Set("trace_file", goggles::serve::JsonValue(path));
    }
  }

  const std::vector<Metric>& metrics =
      options.trace ? result.per_layer : result.end_to_end;
  for (const Metric& m : metrics) {
    std::printf("metric %-36s %16s %s\n", m.name.c_str(), Num(m.value).c_str(),
                m.unit.c_str());
  }
  if (!options.trace) {
    for (const Metric& m : result.info) {
      std::printf("info   %-36s %16s %s\n", m.name.c_str(),
                  Num(m.value).c_str(), m.unit.c_str());
    }
  }
  std::printf("detail %s\n", result.detail.Dump().c_str());
  const bool correct = result.failed == 0 && result.attempted > 0;
  std::string line = "{\"correct\":" + std::string(correct ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(result.attempted) +
                     ",\"failed\":" + std::to_string(result.failed) +
                     ",\"metrics\":{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ',';
    line += "\"" + metrics[i].name + "\":{\"value\":" + Num(metrics[i].value) +
            ",\"unit\":\"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
