#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "features/extractor.h"
#include "serve/json.h"
#include "trace.h"

/// \file workloads.h
/// \brief The benchmark's workloads and the result they hand to main.cc.

namespace perfbench {

/// \brief Command-line options shared by every workload.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string serve_binary;  ///< path of the built goggles_serve
  std::string work_dir;      ///< working directory owned by this run
  /// When the run started: after the wait for a quiet host, before any
  /// set-up work.
  int64_t run_start_us = 0;
};

/// \brief One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// \brief What a workload run produced.
struct WorkloadResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> end_to_end;  ///< filled by untraced runs
  std::vector<Metric> per_layer;   ///< filled by traced runs
  /// Printed with the end-to-end metrics but left out of the result
  /// object (no regression bound).
  std::vector<Metric> info;
  goggles::serve::JsonValue detail = goggles::serve::JsonValue::MakeObject();
};

WorkloadResult RunFitPool(const Options& options, Tracer* tracer);
/// \brief serve_unique, serve_hot and serve_multitask.
WorkloadResult RunServe(const Options& options, Tracer* tracer);

/// \brief Derives an independent sub-seed (splitmix64 of seed ^ salt).
uint64_t SubSeed(uint64_t seed, uint64_t salt);

/// \brief Loads the pretrained backbone from the (warm) weight cache.
std::shared_ptr<goggles::features::FeatureExtractor> LoadBackbone();

/// \brief Peak resident set of this process in MB.
double SelfPeakRssMb();

/// \brief CPU seconds (user + system, all threads) this process has used.
double SelfCpuSeconds();

/// \brief CPU seconds the hypervisor has stolen from this machine (the
/// steal column of /proc/stat), 0 where unavailable.
double StealSeconds();

/// \brief Steal rate, in cores, above which a phase is reported as run on
/// a noisy host.
inline constexpr double kNoisyStealCores = 0.1;

/// \brief Median of the named span's durations in ms (0 when absent).
double SpanMedianMs(const Tracer& tracer, const std::string& name);

/// \brief Per-layer metric names and units every traced run reports; a
/// workload that does not exercise a layer reports 0 for it.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

/// \brief Fills `result->per_layer` in PerLayerMetrics() order from
/// `values` (name -> value), zero-filling names a workload did not set,
/// and lists those names under detail["not_exercised"].
void FinishPerLayer(
    const std::vector<std::pair<std::string, double>>& values,
    WorkloadResult* result);

}  // namespace perfbench
