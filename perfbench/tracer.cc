// Span recording and `--wrap` interposers for the traced benchmark binary.
//
// Each PERFBENCH_WRAP(<mangled symbol>) below defines `__wrap_<symbol>`;
// perfbench/CMakeLists.txt turns every marker into `-Wl,--wrap=<symbol>`,
// so the library's cross-translation-unit calls to that symbol land here,
// and PERFBENCH_REAL(<symbol>) reaches the original. A member function is
// declared as a free function whose first parameter is `this`, which is
// how the Itanium C++ ABI passes it. MakeServer is wrapped to return a
// ServerApi decorator that times every virtual call.
//
// If a wrapped signature changes, `__real_<old symbol>` stays unresolved
// and the traced link fails, so a stale wrapper cannot silently measure
// nothing.
#include "perfbench/tracer.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <system_error>

#include "src/core/checkpoint.h"
#include "src/core/local_trainer.h"
#include "src/core/run_state.h"
#include "src/core/server_api.h"
#include "src/data/dataset.h"
#include "src/data/synthetic.h"
#include "src/eval/evaluator.h"
#include "src/eval/topk.h"
#include "src/fed/groups.h"
#include "src/fed/shard/sharded_server.h"
#include "src/fed/sync/async_aggregator.h"
#include "src/fed/sync/sync_service.h"
#include "src/util/logging.h"
#include "src/util/thread_pool.h"
#include "src/util/timer.h"

#define PERFBENCH_WRAP(sym) __asm__("__wrap_" #sym)
#define PERFBENCH_REAL(sym) __asm__("__real_" #sym)

namespace perfbench {
namespace {

using namespace hetefedrec;

constexpr uint32_t kMaxLanes = 257;  // main + 256 ParallelFor slots
constexpr size_t kLaneReserve = size_t{1} << 14;

struct Lane {
  std::vector<Span> spans;
  std::vector<size_t> open;  // indices of open spans, innermost last
  uint64_t next_seq = 1;
};

const Timer g_clock;  // all span times are seconds since process start
std::vector<Lane> g_lanes(kMaxLanes);
uint32_t g_run = 0;
// The lane of the calling thread: 0 outside ParallelFor tasks, set from the
// slot index inside them (LaneGuard).
thread_local uint32_t tl_lane = 0;

class LaneGuard {
 public:
  explicit LaneGuard(size_t slot) : saved_(tl_lane) {
    HFR_CHECK(slot + 1 < kMaxLanes) << "ParallelFor slot " << slot;
    tl_lane = static_cast<uint32_t>(slot + 1);
  }
  ~LaneGuard() { tl_lane = saved_; }
  LaneGuard(const LaneGuard&) = delete;
  LaneGuard& operator=(const LaneGuard&) = delete;

 private:
  uint32_t saved_;
};

const char* LayerName(Layer layer) {
  static const char* const kNames[] = {
      "trainer.run",       "runner.create",     "data.generate",
      "data.split",        "groups.assign",     "server.make",
      "local_trainer.train", "eval.evaluate",   "eval.score",
      "sync.sync",         "thread_pool.parallel_for", "thread_pool.task",
      "async.submit",      "async.merge_next",  "run_state.load",
      "run_state.save",    "checkpoint.save",   "diag.covariance",
      "diag.eigen",        "server.begin_round", "server.upload",
      "server.finish_round", "server.apply",    "server.distill",
      "server.admit",
  };
  static_assert(sizeof(kNames) / sizeof(kNames[0]) ==
                    static_cast<size_t>(Layer::kCount),
                "one name per layer");
  return kNames[static_cast<size_t>(layer)];
}

}  // namespace

ScopedSpan::ScopedSpan(Layer layer, uint64_t parent) : lane_(tl_lane) {
  Lane& l = g_lanes[lane_];
  if (l.spans.capacity() == 0) l.spans.reserve(kLaneReserve);
  id_ = (uint64_t{lane_} << 40) | l.next_seq++;
  Span s;
  s.id = id_;
  s.parent = parent != 0 ? parent
             : l.open.empty() ? 0
                              : l.spans[l.open.back()].id;
  s.layer = layer;
  s.run = g_run;
  s.lane = lane_;
  index_ = l.spans.size();
  l.open.push_back(index_);
  s.start = g_clock.Seconds();
  l.spans.push_back(s);
}

ScopedSpan::~ScopedSpan() {
  const double end = g_clock.Seconds();
  Lane& l = g_lanes[lane_];
  l.spans[index_].end = end;
  l.open.pop_back();
}

void ScopedSpan::Set(double a, double b, int group) {
  Span& s = g_lanes[lane_].spans[index_];
  s.a = a;
  s.b = b;
  s.group = group;
}

void SetRun(uint32_t run) { g_run = run; }

std::vector<Span> TakeSpans() {
  std::vector<Span> out;
  for (Lane& l : g_lanes) {
    HFR_CHECK(l.open.empty()) << "TakeSpans with a span still open";
    out.insert(out.end(), l.spans.begin(), l.spans.end());
    l.spans.clear();
  }
  return out;
}

namespace {

double Dur(const Span& s) { return s.end - s.start; }

// Linear-interpolated quantile of `v` (sorted in place); 0 when empty.
double Quantile(std::vector<double>* v, double q) {
  if (v->empty()) return 0.0;
  std::sort(v->begin(), v->end());
  const double pos = q * static_cast<double>(v->size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v->size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return (*v)[lo] + frac * ((*v)[hi] - (*v)[lo]);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

OpLayers ComputeOpLayers(const std::vector<Span>& spans, size_t num_items) {
  constexpr size_t kLayers = static_cast<size_t>(Layer::kCount);
  std::vector<double> busy(kLayers, 0.0);
  std::vector<double> calls(kLayers, 0.0);
  std::vector<double> sum_a(kLayers, 0.0);
  std::vector<double> sum_b(kLayers, 0.0);
  std::map<uint64_t, size_t> by_id;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const size_t k = static_cast<size_t>(s.layer);
    busy[k] += Dur(s);
    calls[k] += 1.0;
    sum_a[k] += s.a;
    sum_b[k] += s.b;
    by_id[s.id] = i;
  }
  auto B = [&](Layer l) { return busy[static_cast<size_t>(l)]; };
  auto C = [&](Layer l) { return calls[static_cast<size_t>(l)]; };
  auto A = [&](Layer l) { return sum_a[static_cast<size_t>(l)]; };
  auto Bb = [&](Layer l) { return sum_b[static_cast<size_t>(l)]; };
  auto layer_of = [&](uint64_t id) {
    auto it = by_id.find(id);
    return it == by_id.end() ? Layer::kCount : spans[it->second].layer;
  };

  // Server, sync and async calls; nested ones (Apply inside MergeNext)
  // count once, through their outermost span.
  auto coordinates = [](Layer l) {
    return l == Layer::kSync || l == Layer::kSubmit ||
           l == Layer::kMergeNext ||
           (l >= Layer::kBeginRound && l <= Layer::kAdmit);
  };

  // Per-call distributions and per-group / nested sums.
  std::vector<double> train_ms, score_ms;
  double train_group[3] = {0.0, 0.0, 0.0};
  double merges = 0.0, dropped = 0.0, staleness = 0.0;
  double pf_capacity = 0.0, task_busy = 0.0;
  double eval_pf = 0.0, eval_tasks = 0.0;
  double coord = 0.0;
  std::map<uint64_t, double> main_child_sum;  // main-lane parent -> Σ child
  OpLayers out;
  const Span* root = nullptr;
  bool tree_ok = true;
  for (const Span& s : spans) {
    if (coordinates(s.layer) && !coordinates(layer_of(s.parent))) {
      coord += Dur(s);
    }
    switch (s.layer) {
      case Layer::kTrain:
        train_ms.push_back(Dur(s) * 1e3);
        if (s.group >= 0 && s.group < 3) train_group[s.group] += Dur(s);
        break;
      case Layer::kScore:
        score_ms.push_back(Dur(s) * 1e3);
        break;
      case Layer::kMergeNext:
        if (s.a > 0.0) {
          merges += 1.0;
          staleness += s.b;
        } else if (s.group == 0) {
          dropped += 1.0;  // not merged and not an admission rejection
        }
        break;
      case Layer::kParallelFor:
        pf_capacity += s.a * Dur(s);
        if (layer_of(s.parent) == Layer::kEvaluate) eval_pf += Dur(s);
        break;
      case Layer::kTask: {
        task_busy += Dur(s);
        auto it = by_id.find(s.parent);
        if (it != by_id.end() &&
            layer_of(spans[it->second].parent) == Layer::kEvaluate) {
          eval_tasks += Dur(s);
        }
        break;
      }
      default:
        break;
    }
    if (s.lane != 0) continue;
    if (s.layer == Layer::kRun && s.parent == 0) {
      if (root != nullptr) tree_ok = false;  // one Run per op
      root = &s;
      continue;
    }
    auto it = by_id.find(s.parent);
    if (it == by_id.end() || spans[it->second].lane != 0) {
      tree_ok = false;  // every main-lane span descends from the Run
      continue;
    }
    const Span& p = spans[it->second];
    if (s.start < p.start || s.end > p.end) tree_ok = false;
    main_child_sum[s.parent] += Dur(s);
  }
  if (root == nullptr) {
    out.tree_ok = false;
    return out;
  }
  // Siblings on the main lane must not overlap: sort by start per parent.
  std::map<uint64_t, std::vector<std::pair<double, double>>> kids;
  double self_sum = 0.0;
  for (const Span& s : spans) {
    if (s.lane != 0) continue;
    if (&s != root) kids[s.parent].push_back({s.start, s.end});
    self_sum += Dur(s) - main_child_sum[s.id];
  }
  for (auto& [parent, iv] : kids) {
    std::sort(iv.begin(), iv.end());
    for (size_t i = 1; i < iv.size(); ++i) {
      if (iv[i].first < iv[i - 1].second) tree_ok = false;
    }
  }
  out.run_s = Dur(*root);
  out.main_self_sum_s = self_sum;
  out.tree_ok = tree_ok && std::fabs(self_sum - out.run_s) <= 1e-6;

  const double users = C(Layer::kScore);
  const double eval_work = B(Layer::kEvaluate) - eval_pf + eval_tasks;
  auto& m = out.metrics;
  m = {
      {"local_trainer.calls", C(Layer::kTrain)},
      {"local_trainer.busy_s", B(Layer::kTrain)},
      {"local_trainer.call_ms_p50", Quantile(&train_ms, 0.50)},
      {"local_trainer.call_ms_p99", Quantile(&train_ms, 0.99)},
      {"local_trainer.busy_s.us", train_group[0]},
      {"local_trainer.busy_s.um", train_group[1]},
      {"local_trainer.busy_s.ul", train_group[2]},
      {"local_trainer.samples_per_s", Ratio(A(Layer::kTrain), B(Layer::kTrain))},
      {"local_trainer.read_rows_mean",
       Ratio(Bb(Layer::kTrain), C(Layer::kTrain))},
      {"server.make_s", B(Layer::kMakeServer)},
      {"server.begin_round_s", B(Layer::kBeginRound)},
      {"server.upload_s", B(Layer::kUpload)},
      {"server.finish_round_s", B(Layer::kFinishRound)},
      {"server.apply_s", B(Layer::kApply)},
      {"server.apply_calls", C(Layer::kApply)},
      {"server.admit_s", B(Layer::kAdmit)},
      {"server.admit_accept_ratio", Ratio(A(Layer::kAdmit), C(Layer::kAdmit))},
      {"server.distill_s", B(Layer::kDistill)},
      {"server.distill_calls", C(Layer::kDistill)},
      {"sync.calls", C(Layer::kSync)},
      {"sync.busy_s", B(Layer::kSync)},
      {"sync.rows_subscribed", A(Layer::kSync)},
      {"sync.rows_shipped", Bb(Layer::kSync)},
      {"sync.ship_ratio", Ratio(Bb(Layer::kSync), A(Layer::kSync))},
      {"async.submit_s", B(Layer::kSubmit)},
      {"async.merge_s", B(Layer::kMergeNext)},
      {"async.merges", merges},
      {"async.dropped", dropped},
      {"async.staleness_mean", Ratio(staleness, merges)},
      {"thread_pool.parallel_for_calls", C(Layer::kParallelFor)},
      {"thread_pool.parallel_for_s", B(Layer::kParallelFor)},
      {"thread_pool.idle_share",
       pf_capacity > 0.0 ? 1.0 - task_busy / pf_capacity : 0.0},
      {"eval.calls", C(Layer::kEvaluate)},
      {"eval.busy_s", B(Layer::kEvaluate)},
      {"eval.users", users},
      {"eval.items_scored", users * static_cast<double>(num_items)},
      {"eval.score_s", B(Layer::kScore)},
      {"eval.select_s", eval_work - B(Layer::kScore)},
      {"eval.user_ms_p50", Quantile(&score_ms, 0.50)},
      {"eval.user_ms_p99", Quantile(&score_ms, 0.99)},
      {"run_state.load_s", B(Layer::kLoadRunState)},
      {"run_state.load_bytes", A(Layer::kLoadRunState)},
      {"run_state.save_s", B(Layer::kSaveRunState)},
      {"checkpoint.save_s", B(Layer::kSaveCheckpoint)},
      {"diag.collapse_s", B(Layer::kCovariance) + B(Layer::kEigen)},
      {"trainer.self_s", Dur(*root) - main_child_sum[root->id]},
      {"trainer.server_sync_async_s", coord},
  };
  return out;
}

std::vector<std::pair<std::string, double>> ComputeSetupLayers(
    const std::vector<Span>& spans) {
  double gen = 0.0, split = 0.0, groups = 0.0;
  for (const Span& s : spans) {
    if (s.layer == Layer::kGenerate) gen += Dur(s);
    if (s.layer == Layer::kSplit) split += Dur(s);
    if (s.layer == Layer::kGroups) groups += Dur(s);
  }
  return {{"data.generate_s", gen},
          {"data.split_s", split},
          {"groups.assign_s", groups}};
}

double MeasureSpanCostNs() {
  constexpr int kSpans = 100000;
  const double start = g_clock.Seconds();
  for (int i = 0; i < kSpans; ++i) ScopedSpan span(Layer::kRun);
  const double ns = (g_clock.Seconds() - start) / kSpans * 1e9;
  TakeSpans();
  return ns;
}

std::string SpansToChromeJson(const std::vector<Span>& spans) {
  std::string out = "{\"traceEvents\":[";
  char buf[320];
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                  "\"parent\":%llu,\"run\":%u}}",
                  i == 0 ? "" : ",\n", LayerName(s.layer), s.lane,
                  s.start * 1e6, Dur(s) * 1e6,
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent), s.run);
    out += buf;
  }
  out += "]}\n";
  return out;
}

// --- interposers ---------------------------------------------------------
namespace {

// ServerApi decorator: times the calls that do work, forwards the rest.
class TimedServer final : public ServerApi {
 public:
  explicit TimedServer(std::unique_ptr<ServerApi> inner)
      : inner_(std::move(inner)) {}

  size_t num_slots() const override { return inner_->num_slots(); }
  size_t width(size_t slot) const override { return inner_->width(slot); }
  size_t num_items() const override { return inner_->num_items(); }
  size_t SlotParamCount(size_t slot) const override {
    return inner_->SlotParamCount(slot);
  }
  size_t num_shards() const override { return inner_->num_shards(); }
  size_t shard_of_row(size_t row) const override {
    return inner_->shard_of_row(row);
  }
  uint64_t shard_upload_scalars(size_t shard) const override {
    return inner_->shard_upload_scalars(shard);
  }
  const Matrix& table(size_t slot) const override {
    return inner_->table(slot);
  }
  const FeedForwardNet& theta(size_t slot) const override {
    return inner_->theta(slot);
  }
  const VersionView& versions() const override { return inner_->versions(); }

  void BeginRound() override {
    ScopedSpan span(Layer::kBeginRound);
    inner_->BeginRound();
  }
  void UploadDelta(const std::vector<LocalTaskSpec>& tasks,
                   const LocalUpdateResult& update, double weight) override {
    ScopedSpan span(Layer::kUpload);
    inner_->UploadDelta(tasks, update, weight);
  }
  void FinishRound() override {
    ScopedSpan span(Layer::kFinishRound);
    inner_->FinishRound();
  }
  void ApplyUpdate(const std::vector<LocalTaskSpec>& tasks,
                   const LocalUpdateResult& update, double scale) override {
    ScopedSpan span(Layer::kApply);
    inner_->ApplyUpdate(tasks, update, scale);
  }
  double Distill(const DistillationOptions& options, Rng* rng) override {
    ScopedSpan span(Layer::kDistill);
    return inner_->Distill(options, rng);
  }
  void StampRows(size_t slot, const std::vector<uint32_t>& rows) override {
    inner_->StampRows(slot, rows);
  }
  void SetAdmission(AdmissionController* admission) override {
    inner_->SetAdmission(admission);
  }
  bool admission_enabled() const override {
    return inner_->admission_enabled();
  }
  AdmissionDecision Admit(const std::vector<LocalTaskSpec>& tasks,
                          LocalUpdateResult* update) override {
    ScopedSpan span(Layer::kAdmit);
    AdmissionDecision d = inner_->Admit(tasks, update);
    span.Set(d.verdict == AdmissionVerdict::kAccept ? 1.0 : 0.0, 0.0);
    return d;
  }
  ServerSnapshot Snapshot() const override { return inner_->Snapshot(); }
  void RestoreSnapshot(ServerSnapshot snapshot) override {
    inner_->RestoreSnapshot(std::move(snapshot));
  }

 private:
  std::unique_ptr<ServerApi> inner_;
};

}  // namespace
}  // namespace perfbench

namespace hetefedrec {
namespace {
using perfbench::Layer;
using perfbench::ScopedSpan;
using TaskFn = std::function<void(size_t, size_t)>;
using Thetas = std::vector<const FeedForwardNet*>;
using Tasks = std::vector<LocalTaskSpec>;
}  // namespace

// --- data / groups (ExperimentRunner::Create) -----------------------------
std::vector<Interaction> RealGenerate(const SyntheticConfig& c)
    PERFBENCH_REAL(_ZN10hetefedrec20GenerateInteractionsERKNS_15SyntheticConfigE);
std::vector<Interaction> WrapGenerate(const SyntheticConfig& c)
    PERFBENCH_WRAP(_ZN10hetefedrec20GenerateInteractionsERKNS_15SyntheticConfigE);
std::vector<Interaction> WrapGenerate(const SyntheticConfig& c) {
  ScopedSpan span(Layer::kGenerate);
  return RealGenerate(c);
}

StatusOr<Dataset> RealSplit(const std::vector<Interaction>& x, size_t users,
                            size_t items, const SplitOptions& o)
    PERFBENCH_REAL(_ZN10hetefedrec7Dataset16FromInteractionsERKSt6vectorINS_11InteractionESaIS2_EEmmRKNS_12SplitOptionsE);
StatusOr<Dataset> WrapSplit(const std::vector<Interaction>& x, size_t users,
                            size_t items, const SplitOptions& o)
    PERFBENCH_WRAP(_ZN10hetefedrec7Dataset16FromInteractionsERKSt6vectorINS_11InteractionESaIS2_EEmmRKNS_12SplitOptionsE);
StatusOr<Dataset> WrapSplit(const std::vector<Interaction>& x, size_t users,
                            size_t items, const SplitOptions& o) {
  ScopedSpan span(Layer::kSplit);
  return RealSplit(x, users, items, o);
}

StatusOr<GroupAssignment> RealGroups(const Dataset& ds,
                                     const std::array<double, 3>& f)
    PERFBENCH_REAL(_ZN10hetefedrec12AssignGroupsERKNS_7DatasetERKSt5arrayIdLm3EE);
StatusOr<GroupAssignment> WrapGroups(const Dataset& ds,
                                     const std::array<double, 3>& f)
    PERFBENCH_WRAP(_ZN10hetefedrec12AssignGroupsERKNS_7DatasetERKSt5arrayIdLm3EE);
StatusOr<GroupAssignment> WrapGroups(const Dataset& ds,
                                     const std::array<double, 3>& f) {
  ScopedSpan span(Layer::kGroups);
  return RealGroups(ds, f);
}

// --- core.server (ServerApi decorator) ------------------------------------
std::unique_ptr<ServerApi> RealMakeServer(const HeteroServer::Options& o,
                                          size_t shards)
    PERFBENCH_REAL(_ZN10hetefedrec10MakeServerERKNS_12HeteroServer7OptionsEm);
std::unique_ptr<ServerApi> WrapMakeServer(const HeteroServer::Options& o,
                                          size_t shards)
    PERFBENCH_WRAP(_ZN10hetefedrec10MakeServerERKNS_12HeteroServer7OptionsEm);
std::unique_ptr<ServerApi> WrapMakeServer(const HeteroServer::Options& o,
                                          size_t shards) {
  ScopedSpan span(Layer::kMakeServer);
  return std::make_unique<perfbench::TimedServer>(RealMakeServer(o, shards));
}

// --- core.local_trainer -----------------------------------------------------
LocalUpdateResult RealTrain(LocalTrainer* self, ClientState* client,
                            const Matrix& table, const Thetas& thetas,
                            const Tasks& tasks, const LocalTrainerOptions& o)
    PERFBENCH_REAL(_ZN10hetefedrec12LocalTrainer5TrainEPNS_11ClientStateERKNS_7MatrixTIdEERKSt6vectorIPKNS_15FeedForwardNetTIdEESaISB_EERKS7_INS_13LocalTaskSpecESaISG_EERKNS_19LocalTrainerOptionsE);
LocalUpdateResult WrapTrain(LocalTrainer* self, ClientState* client,
                            const Matrix& table, const Thetas& thetas,
                            const Tasks& tasks, const LocalTrainerOptions& o)
    PERFBENCH_WRAP(_ZN10hetefedrec12LocalTrainer5TrainEPNS_11ClientStateERKNS_7MatrixTIdEERKSt6vectorIPKNS_15FeedForwardNetTIdEESaISB_EERKS7_INS_13LocalTaskSpecESaISG_EERKNS_19LocalTrainerOptionsE);
LocalUpdateResult WrapTrain(LocalTrainer* self, ClientState* client,
                            const Matrix& table, const Thetas& thetas,
                            const Tasks& tasks, const LocalTrainerOptions& o) {
  ScopedSpan span(Layer::kTrain);
  const int group = static_cast<int>(client->group);
  LocalUpdateResult r = RealTrain(self, client, table, thetas, tasks, o);
  span.Set(static_cast<double>(r.train_samples),
           static_cast<double>(r.read_rows.size()), group);
  return r;
}

// --- eval -------------------------------------------------------------------
GroupedEval RealEvaluate(const Evaluator* self,
                         const Evaluator::StreamScoreFn& fn, ThreadPool* pool)
    PERFBENCH_REAL(_ZNK10hetefedrec9Evaluator8EvaluateERKSt8functionIFvimPNS_12TopKSelectorEEEPNS_10ThreadPoolE);
GroupedEval WrapEvaluate(const Evaluator* self,
                         const Evaluator::StreamScoreFn& fn, ThreadPool* pool)
    PERFBENCH_WRAP(_ZNK10hetefedrec9Evaluator8EvaluateERKSt8functionIFvimPNS_12TopKSelectorEEEPNS_10ThreadPoolE);
GroupedEval WrapEvaluate(const Evaluator* self,
                         const Evaluator::StreamScoreFn& fn, ThreadPool* pool) {
  ScopedSpan span(Layer::kEvaluate);
  const Evaluator::StreamScoreFn timed = [&fn](UserId u, size_t slot,
                                               TopKSelector* sink) {
    ScopedSpan user(Layer::kScore);
    fn(u, slot, sink);
  };
  GroupedEval r = RealEvaluate(self, timed, pool);
  span.Set(static_cast<double>(r.overall.users), 0.0);
  return r;
}

// --- util.thread_pool -------------------------------------------------------
void RealParallelFor(ThreadPool* self, size_t n, const TaskFn& fn)
    PERFBENCH_REAL(_ZN10hetefedrec10ThreadPool11ParallelForEmRKSt8functionIFvmmEE);
void WrapParallelFor(ThreadPool* self, size_t n, const TaskFn& fn)
    PERFBENCH_WRAP(_ZN10hetefedrec10ThreadPool11ParallelForEmRKSt8functionIFvmmEE);
void WrapParallelFor(ThreadPool* self, size_t n, const TaskFn& fn) {
  ScopedSpan span(Layer::kParallelFor);
  span.Set(static_cast<double>(self->num_slots()), static_cast<double>(n));
  const uint64_t parent = span.id();
  const TaskFn timed = [&fn, parent](size_t i, size_t slot) {
    perfbench::LaneGuard lane(slot);
    ScopedSpan task(Layer::kTask, parent);
    fn(i, slot);
  };
  RealParallelFor(self, n, timed);
}

// --- fed.sync -----------------------------------------------------------------
SyncPlan RealSync(SyncService* self, UserId u, size_t slot,
                  const std::vector<uint32_t>& sub, const Matrix& table,
                  const VersionView& versions, size_t theta_params)
    PERFBENCH_REAL(_ZN10hetefedrec11SyncService4SyncEimRKSt6vectorIjSaIjEERKNS_7MatrixTIdEERKNS_11VersionViewEm);
SyncPlan WrapSync(SyncService* self, UserId u, size_t slot,
                  const std::vector<uint32_t>& sub, const Matrix& table,
                  const VersionView& versions, size_t theta_params)
    PERFBENCH_WRAP(_ZN10hetefedrec11SyncService4SyncEimRKSt6vectorIjSaIjEERKNS_7MatrixTIdEERKNS_11VersionViewEm);
SyncPlan WrapSync(SyncService* self, UserId u, size_t slot,
                  const std::vector<uint32_t>& sub, const Matrix& table,
                  const VersionView& versions, size_t theta_params) {
  ScopedSpan span(Layer::kSync);
  SyncPlan plan = RealSync(self, u, slot, sub, table, versions, theta_params);
  span.Set(static_cast<double>(plan.subscribed_rows),
           static_cast<double>(plan.shipped_rows));
  return plan;
}

// --- fed.sync.async_aggregator ----------------------------------------------
void RealSubmit(AsyncAggregator* self, UserId user, const Tasks* tasks,
                LocalUpdateResult update, uint64_t version, double finish)
    PERFBENCH_REAL(_ZN10hetefedrec15AsyncAggregator6SubmitEiPKSt6vectorINS_13LocalTaskSpecESaIS2_EENS_17LocalUpdateResultEmd);
void WrapSubmit(AsyncAggregator* self, UserId user, const Tasks* tasks,
                LocalUpdateResult update, uint64_t version, double finish)
    PERFBENCH_WRAP(_ZN10hetefedrec15AsyncAggregator6SubmitEiPKSt6vectorINS_13LocalTaskSpecESaIS2_EENS_17LocalUpdateResultEmd);
void WrapSubmit(AsyncAggregator* self, UserId user, const Tasks* tasks,
                LocalUpdateResult update, uint64_t version, double finish) {
  ScopedSpan span(Layer::kSubmit);
  RealSubmit(self, user, tasks, std::move(update), version, finish);
}

AsyncAggregator::Outcome RealMergeNext(AsyncAggregator* self,
                                       const DistillationOptions& o, Rng* rng)
    PERFBENCH_REAL(_ZN10hetefedrec15AsyncAggregator9MergeNextERKNS_19DistillationOptionsEPNS_3RngE);
AsyncAggregator::Outcome WrapMergeNext(AsyncAggregator* self,
                                       const DistillationOptions& o, Rng* rng)
    PERFBENCH_WRAP(_ZN10hetefedrec15AsyncAggregator9MergeNextERKNS_19DistillationOptionsEPNS_3RngE);
AsyncAggregator::Outcome WrapMergeNext(AsyncAggregator* self,
                                       const DistillationOptions& o, Rng* rng) {
  ScopedSpan span(Layer::kMergeNext);
  AsyncAggregator::Outcome out = RealMergeNext(self, o, rng);
  span.Set(out.merged ? 1.0 : 0.0, static_cast<double>(out.staleness),
           out.rejected ? 1 : 0);
  return out;
}

// --- core.run_state / core.checkpoint ---------------------------------------
StatusOr<RunState> RealLoadRunState(const std::string& path)
    PERFBENCH_REAL(_ZN10hetefedrec12LoadRunStateERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE);
StatusOr<RunState> WrapLoadRunState(const std::string& path)
    PERFBENCH_WRAP(_ZN10hetefedrec12LoadRunStateERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE);
StatusOr<RunState> WrapLoadRunState(const std::string& path) {
  ScopedSpan span(Layer::kLoadRunState);
  StatusOr<RunState> st = RealLoadRunState(path);
  std::error_code ec;
  const auto bytes = std::filesystem::file_size(path, ec);
  span.Set(ec ? 0.0 : static_cast<double>(bytes), 0.0);
  return st;
}

Status RealSaveRunState(const std::string& path, const RunState& state)
    PERFBENCH_REAL(_ZN10hetefedrec12SaveRunStateERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERKNS_8RunStateE);
Status WrapSaveRunState(const std::string& path, const RunState& state)
    PERFBENCH_WRAP(_ZN10hetefedrec12SaveRunStateERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERKNS_8RunStateE);
Status WrapSaveRunState(const std::string& path, const RunState& state) {
  ScopedSpan span(Layer::kSaveRunState);
  return RealSaveRunState(path, state);
}

Status RealSaveCheckpoint(const std::string& path, const ServerApi& server,
                          const std::string& model)
    PERFBENCH_REAL(_ZN10hetefedrec20SaveServerCheckpointERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERKNS_9ServerApiES7_);
Status WrapSaveCheckpoint(const std::string& path, const ServerApi& server,
                          const std::string& model)
    PERFBENCH_WRAP(_ZN10hetefedrec20SaveServerCheckpointERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERKNS_9ServerApiES7_);
Status WrapSaveCheckpoint(const std::string& path, const ServerApi& server,
                          const std::string& model) {
  ScopedSpan span(Layer::kSaveCheckpoint);
  return RealSaveCheckpoint(path, server, model);
}

// --- collapse diagnostic (core.trainer) -------------------------------------
Matrix RealCovariance(const Matrix& m)
    PERFBENCH_REAL(_ZN10hetefedrec16CovarianceMatrixERKNS_7MatrixTIdEE);
Matrix WrapCovariance(const Matrix& m)
    PERFBENCH_WRAP(_ZN10hetefedrec16CovarianceMatrixERKNS_7MatrixTIdEE);
Matrix WrapCovariance(const Matrix& m) {
  ScopedSpan span(Layer::kCovariance);
  return RealCovariance(m);
}

std::vector<double> RealEigen(const Matrix& sym, int max_sweeps)
    PERFBENCH_REAL(_ZN10hetefedrec20SymmetricEigenvaluesERKNS_7MatrixTIdEEi);
std::vector<double> WrapEigen(const Matrix& sym, int max_sweeps)
    PERFBENCH_WRAP(_ZN10hetefedrec20SymmetricEigenvaluesERKNS_7MatrixTIdEEi);
std::vector<double> WrapEigen(const Matrix& sym, int max_sweeps) {
  ScopedSpan span(Layer::kEigen);
  return RealEigen(sym, max_sweeps);
}

}  // namespace hetefedrec
