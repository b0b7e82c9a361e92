// perfbench_ops — times ExperimentRunner::Create and ExperimentRunner::Run
// for one workload and prints one JSON line with every raw measurement.
//
//   perfbench_ops --mode=train --dataset=ml --epochs=4 --seed=3
//       --setups=15 --budget_s=20 --work_dir=.bench_build/work
//
// Experiment flags are hetefedrec_run's (same names and defaults) plus the
// shared registry, so a workload is written exactly as a hetefedrec_run
// command line. Modes:
//   train  each op is one full Run of the configured method;
//   rank   one training Run writes a run-state checkpoint (skipped with
//          --reuse_checkpoint), then each op is a Run with resume_run:
//          load the checkpoint, run zero rounds, rank every user.
// Ops repeat until --budget_s has elapsed (at least one, at most
// --max_ops); --max_ops=0 only times the setups. perfbench/run.py judges
// and aggregates the output.
//
// Built twice: perfbench_ops (untraced) and perfbench_ops_traced, which
// adds perfbench/tracer.cc and per-op layer metrics (PERFBENCH_TRACED).
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/config.h"
#include "src/core/trainer.h"
#include "src/math/backend.h"
#include "src/util/cli.h"
#include "src/util/telemetry/json.h"
#include "src/util/timer.h"

#ifdef PERFBENCH_TRACED
#include "perfbench/tracer.h"
#endif

namespace hetefedrec {
namespace {

// Process CPU seconds (user + sys, all threads) and peak RSS, from one
// getrusage call.
struct Usage {
  double cpu_s = 0.0;
  size_t peak_rss_kb = 0;
};

Usage ProcessUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return {sec(ru.ru_utime) + sec(ru.ru_stime),
          static_cast<size_t>(ru.ru_maxrss)};  // kilobytes on Linux
}

std::string JsonArray(const std::vector<double>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ',';
    AppendJsonNumber(&out, v[i]);
  }
  return out + "]";
}

template <size_t N, typename T>
std::string JsonArray(const std::array<T, N>& v) {
  return JsonArray(std::vector<double>(v.begin(), v.end()));
}

const char* AggregationName(AggregationMode m) {
  switch (m) {
    case AggregationMode::kSum:
      return "sum";
    case AggregationMode::kMean:
      return "mean";
    case AggregationMode::kDataWeighted:
      return "weighted";
  }
  return "?";
}

/// Every ExperimentConfig field, typed, in declaration order.
std::string ConfigJson(const ExperimentConfig& c) {
  JsonObj o;
  o.Str("dataset", c.dataset)
      .Num("data_scale", c.data_scale)
      .Str("base_model", BaseModelName(c.base_model))
      .Raw("dims", JsonArray(c.dims))
      .Raw("ffn_hidden", JsonArray(c.ffn_hidden))
      .Num("embed_init_std", c.embed_init_std)
      .Raw("group_fractions", JsonArray(c.group_fractions))
      .I64("global_epochs", c.global_epochs)
      .I64("local_epochs", c.local_epochs)
      .U64("clients_per_round", c.clients_per_round)
      .Num("lr", c.lr)
      .Str("aggregation", AggregationName(c.aggregation))
      .Num("local_validation_fraction", c.local_validation_fraction)
      .Bool("unified_dual_task", c.unified_dual_task)
      .Bool("decorrelation", c.decorrelation)
      .Bool("ensemble_distillation", c.ensemble_distillation)
      .Num("alpha", c.alpha)
      .U64("ddr_sample_rows", c.ddr_sample_rows)
      .U64("kd_items", c.kd_items)
      .I64("kd_steps", c.kd_steps)
      .Num("kd_lr", c.kd_lr)
      .Bool("use_sparse_updates", c.use_sparse_updates)
      .Bool("sparse_comm_accounting", c.sparse_comm_accounting)
      .Bool("use_batched_scoring", c.use_batched_scoring)
      .Bool("use_batched_topk", c.use_batched_topk)
      .U64("num_threads", c.num_threads)
      .Str("compute_backend", ComputeBackendName(c.compute_backend))
      .U64("server_shards", c.server_shards)
      .Bool("full_downloads", c.full_downloads)
      .Bool("sync_verify_replicas", c.sync_verify_replicas)
      .U64("sync_replica_cap", c.sync_replica_cap)
      .Num("availability", c.availability)
      .U64("straggler_slack", c.straggler_slack)
      .Num("round_deadline", c.round_deadline)
      .Num("net_bandwidth", c.net_bandwidth)
      .Num("net_bandwidth_sigma", c.net_bandwidth_sigma)
      .Num("net_latency", c.net_latency)
      .Num("net_latency_sigma", c.net_latency_sigma)
      .Num("net_compute_per_sample", c.net_compute_per_sample)
      .U64("wire_scalar_bytes", c.wire_scalar_bytes)
      .Bool("async_mode", c.async_mode)
      .Num("async_staleness_alpha", c.async_staleness_alpha)
      .U64("async_max_staleness", c.async_max_staleness)
      .U64("async_distill_every", c.async_distill_every)
      .U64("async_inflight", c.async_inflight)
      .U64("async_dispatch_batch", c.async_dispatch_batch)
      .U64("top_k", c.top_k)
      .I64("eval_every", c.eval_every)
      .U64("eval_user_sample", c.eval_user_sample)
      .U64("eval_candidate_sample", c.eval_candidate_sample)
      .Num("fault_upload_loss", c.fault_upload_loss)
      .Num("fault_download_loss", c.fault_download_loss)
      .Num("fault_crash", c.fault_crash)
      .Num("fault_duplicate", c.fault_duplicate)
      .Num("fault_corrupt", c.fault_corrupt)
      .U64("fault_retry_max", c.fault_retry_max)
      .Num("fault_retry_base", c.fault_retry_base)
      .Num("fault_retry_cap", c.fault_retry_cap)
      .Num("fault_quarantine_base", c.fault_quarantine_base)
      .Num("fault_quarantine_cap", c.fault_quarantine_cap)
      .Num("fault_jitter", c.fault_jitter)
      .Bool("admission_control", c.admission_control)
      .Num("admit_max_row_norm", c.admit_max_row_norm)
      .Num("admit_outlier_z", c.admit_outlier_z)
      .U64("checkpoint_every", c.checkpoint_every)
      .Bool("resume_run", c.resume_run)
      .U64("debug_stop_after_rounds", c.debug_stop_after_rounds)
      .Str("metrics_out", c.metrics_out)
      .Str("trace_out", c.trace_out)
      .Bool("profile", c.profile)
      .Bool("track_round_comm", c.track_round_comm)
      .U64("seed", c.seed)
      .Str("checkpoint_path", c.checkpoint_path);
  return o.Build();
}

/// The outputs an op is checked on, plus its timings.
std::string ResultJson(const ExperimentResult& r, double run_s, double cpu_s) {
  const CommStats& comm = r.comm;
  size_t updates = 0;
  std::vector<double> group_ndcg;
  for (int g = 0; g < kNumGroups; ++g) {
    updates += comm.Participations(static_cast<Group>(g));
    group_ndcg.push_back(r.final_eval.per_group[g].ndcg);
  }
  std::vector<double> counters;
  for (uint64_t v : comm.ExportCounters()) {
    counters.push_back(static_cast<double>(v));
  }
  const FaultStats& f = comm.faults();
  JsonObj faults;
  faults.U64("download_lost", f.download_lost)
      .U64("upload_lost", f.upload_lost)
      .U64("crashed", f.crashed)
      .U64("duplicates", f.duplicates)
      .U64("corrupted", f.corrupted)
      .U64("rejected_nonfinite", f.rejected_nonfinite)
      .U64("rejected_outlier", f.rejected_outlier)
      .U64("rows_clipped", f.rows_clipped)
      .U64("quarantines", f.quarantines)
      .U64("retries", f.retries)
      .U64("gave_up", f.gave_up)
      .U64("nonfinite_grad_steps", f.nonfinite_grad_steps);
  JsonObj o;
  o.Num("run_s", run_s)
      .Num("cpu_s", cpu_s)
      .Num("ndcg", r.final_eval.overall.ndcg)
      .Num("recall", r.final_eval.overall.recall)
      .Raw("group_ndcg", JsonArray(group_ndcg))
      .U64("users", r.final_eval.overall.users)
      .U64("updates", updates)
      .U64("bytes", comm.TotalBytes())
      .U64("scalars", comm.TotalTransmitted())
      .Num("sim_s", r.simulated_seconds)
      .Num("collapse_cv", r.collapse_cv)
      .Raw("comm_counters", JsonArray(counters))
      .Raw("faults", faults.Build());
  return o.Build();
}

#ifdef PERFBENCH_TRACED
std::string PairsJson(const std::vector<std::pair<std::string, double>>& kv) {
  JsonObj o;
  for (const auto& [k, v] : kv) o.Num(k.c_str(), v);
  return o.Build();
}
#endif

StatusOr<std::unique_ptr<ExperimentRunner>> TimedCreate(
    const ExperimentConfig& cfg, std::vector<double>* setup_s,
    std::vector<std::string>* setup_layers) {
  Timer t;
  StatusOr<std::unique_ptr<ExperimentRunner>> runner = [&] {
#ifdef PERFBENCH_TRACED
    perfbench::ScopedSpan span(perfbench::Layer::kCreate);
#endif
    return ExperimentRunner::Create(cfg);
  }();
  setup_s->push_back(t.Seconds());
#ifdef PERFBENCH_TRACED
  setup_layers->push_back(
      PairsJson(perfbench::ComputeSetupLayers(perfbench::TakeSpans())));
#else
  (void)setup_layers;
#endif
  return runner;
}

int Main(int argc, char** argv) {
  CommandLine cli;
  // hetefedrec_run's own flags, same names and defaults.
  cli.AddFlag("method", "hetefedrec", "training scheme");
  cli.AddFlag("dataset", "ml", "ml | anime | douban");
  cli.AddFlag("model", "ncf", "ncf | lightgcn");
  cli.AddFlag("data_scale", "0.06", "synthetic dataset scale in (0,1]");
  cli.AddFlag("epochs", "18", "global epochs");
  cli.AddFlag("local_epochs", "2", "local epochs per round");
  cli.AddFlag("clients_per_round", "64", "round size");
  cli.AddFlag("lr", "0.001", "Adam learning rate");
  cli.AddFlag("alpha", "1.0", "DDR weight");
  cli.AddFlag("eval_users", "300", "evaluation user sample (0 = all)");
  RegisterExperimentFlags(&cli);
  // Benchmark flags.
  cli.AddFlag("mode", "train", "train | rank");
  cli.AddFlag("setups", "5", "timed ExperimentRunner::Create calls");
  cli.AddFlag("budget_s", "10", "keep starting ops until this many seconds");
  cli.AddFlag("max_ops", "1000", "op cap (0 = time the setups only)");
  cli.AddFlag("work_dir", ".", "where rank mode writes its checkpoint");
  cli.AddFlag("reuse_checkpoint", "false",
              "rank mode: skip the training run, use the existing checkpoint");
  cli.AddFlag("spans_out", "", "traced build: Chrome trace of the first op");
  Status st = cli.Parse(argc, argv);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n%s", st.ToString().c_str(),
                 cli.Usage(argv[0]).c_str());
    return 2;
  }

  ExperimentConfig cfg;
  cfg.dataset = cli.GetString("dataset");
  cfg.data_scale = cli.GetDouble("data_scale");
  cfg.global_epochs = cli.GetInt("epochs");
  cfg.local_epochs = cli.GetInt("local_epochs");
  cfg.clients_per_round = static_cast<size_t>(cli.GetInt("clients_per_round"));
  cfg.lr = cli.GetDouble("lr");
  cfg.alpha = cli.GetDouble("alpha");
  cfg.eval_user_sample = static_cast<size_t>(cli.GetInt("eval_users"));
  st = ApplyExperimentFlags(cli, &cfg);
  auto model = BaseModelByName(cli.GetString("model"));
  auto method = MethodByName(cli.GetString("method"));
  const std::string mode = cli.GetString("mode");
  if (!st.ok() || !model.ok() || !method.ok() ||
      (mode != "train" && mode != "rank")) {
    std::fprintf(stderr, "bad experiment flags: %s %s %s mode=%s\n",
                 st.ToString().c_str(), model.status().ToString().c_str(),
                 method.status().ToString().c_str(), mode.c_str());
    return 2;
  }
  cfg.base_model = *model;
  const bool rank = mode == "rank";
  if (rank) {
    cfg.checkpoint_path = cli.GetString("work_dir") + "/rank-seed" +
                          std::to_string(cfg.seed) + ".ckpt";
  }
  const int setups = std::max(1, cli.GetInt("setups"));
  const double budget_s = cli.GetDouble("budget_s");
  const int max_ops = std::max(0, cli.GetInt("max_ops"));

  std::vector<double> setup_s;
  std::vector<std::string> setup_layers;
  std::unique_ptr<ExperimentRunner> runner;
  auto create = [&](const ExperimentConfig& c) {
    auto created = TimedCreate(c, &setup_s, &setup_layers);
    if (!created.ok()) {
      std::fprintf(stderr, "Create failed: %s\n",
                   created.status().ToString().c_str());
      return false;
    }
    runner = std::move(created).value();
    return true;
  };
  for (int i = 0; i < setups; ++i) {
    if (!create(cfg)) return 1;
  }

  std::string prep_json = "null";
  if (rank && max_ops > 0) {
    if (!cli.GetBool("reuse_checkpoint")) {
      const double cpu0 = ProcessUsage().cpu_s;
      Timer t;
      ExperimentResult r = runner->Run(*method);
      prep_json = ResultJson(r, t.Seconds(), ProcessUsage().cpu_s - cpu0);
#ifdef PERFBENCH_TRACED
      perfbench::TakeSpans();  // the prep run is not an op
#endif
    }
    ExperimentConfig resume = cfg;
    resume.resume_run = true;
    if (!create(resume)) return 1;
  }

  std::vector<std::string> ops;
  Timer budget;
  while (static_cast<int>(ops.size()) < max_ops &&
         (ops.empty() || budget.Seconds() < budget_s)) {
    const uint32_t op = static_cast<uint32_t>(ops.size()) + 1;
    const double cpu0 = ProcessUsage().cpu_s;
    Timer t;
#ifdef PERFBENCH_TRACED
    perfbench::SetRun(op);
    ExperimentResult r = [&] {
      perfbench::ScopedSpan span(perfbench::Layer::kRun);
      return runner->Run(*method);
    }();
#else
    ExperimentResult r = runner->Run(*method);
#endif
    const double run_s = t.Seconds();
    const double cpu_s = ProcessUsage().cpu_s - cpu0;
    std::string rec = ResultJson(r, run_s, cpu_s);
#ifdef PERFBENCH_TRACED
    const std::vector<perfbench::Span> spans = perfbench::TakeSpans();
    const perfbench::OpLayers layers = perfbench::ComputeOpLayers(
        spans, runner->dataset().num_items());
    JsonObj trace;
    trace.Num("run_s", layers.run_s)
        .Num("main_self_sum_s", layers.main_self_sum_s)
        .Bool("tree_ok", layers.tree_ok)
        .U64("spans", spans.size())
        .Raw("layers", PairsJson(layers.metrics));
    rec.pop_back();  // splice the trace into the op record
    rec += ",\"trace\":" + trace.Build() + "}";
    const std::string spans_out = cli.GetString("spans_out");
    if (op == 1 && !spans_out.empty()) {
      std::ofstream(spans_out) << perfbench::SpansToChromeJson(spans);
    }
#else
    (void)op;
#endif
    ops.push_back(std::move(rec));
  }

  std::string ops_json = "[";
  for (size_t i = 0; i < ops.size(); ++i) {
    if (i > 0) ops_json += ',';
    ops_json += ops[i];
  }
  ops_json += "]";
  std::string setup_layers_json = "[";
  for (size_t i = 0; i < setup_layers.size(); ++i) {
    if (i > 0) setup_layers_json += ',';
    setup_layers_json += setup_layers[i];
  }
  setup_layers_json += "]";

  JsonObj build;
  build.Str("type", PERFBENCH_BUILD_TYPE)
      .Bool("avx2_fma", CpuSupportsFp32Simd())
      .U64("hardware_threads", std::thread::hardware_concurrency())
#ifdef PERFBENCH_TRACED
      .Bool("traced", true);
#else
      .Bool("traced", false);
#endif
  JsonObj out;
#ifdef PERFBENCH_TRACED
  out.Num("span_ns", perfbench::MeasureSpanCostNs());
#endif
  out.Str("mode", mode)
      .Raw("config", ConfigJson(cfg))
      .Raw("build", build.Build())
      .U64("num_users", runner->dataset().num_users())
      .U64("num_items", runner->dataset().num_items())
      .U64("interactions", runner->dataset().TotalInteractions())
      .Raw("setup_s", JsonArray(setup_s))
      .Raw("setup_layers", setup_layers_json)
      .Raw("prep", prep_json)
      .Raw("ops", ops_json)
      .U64("peak_rss_kb", ProcessUsage().peak_rss_kb);
  std::printf("%s\n", out.Build().c_str());
  return 0;
}

}  // namespace
}  // namespace hetefedrec

int main(int argc, char** argv) { return hetefedrec::Main(argc, argv); }
