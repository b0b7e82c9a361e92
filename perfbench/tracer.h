// Outside-in span tracer for the traced benchmark binary.
//
// tracer.cc wraps the library's layer entry points with GNU ld `--wrap`,
// so the unmodified libhetefedrec.a records one span per call: layer,
// start, end, the parent span, and the op (`run`) it belongs to. Spans stay
// in per-lane memory until ops_main.cc takes them between ops.
//
// Lanes: lane 0 is the driving thread outside any ParallelFor task; lane
// 1 + s holds the spans of ParallelFor slot s. A wrapped ParallelFor task
// enters its lane from the slot index the pool passes, so no thread
// identity is ever read, and a slot's lane has one writer at a time.
#ifndef PERFBENCH_TRACER_H_
#define PERFBENCH_TRACER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

enum class Layer : uint8_t {
  kRun,            // ExperimentRunner::Run, recorded by ops_main.cc
  kCreate,         // ExperimentRunner::Create, recorded by ops_main.cc
  kGenerate,       // GenerateInteractions
  kSplit,          // Dataset::FromInteractions
  kGroups,         // AssignGroups
  kMakeServer,     // MakeServer
  kTrain,          // LocalTrainer::Train           a=samples b=read rows
  kEvaluate,       // Evaluator::Evaluate (stream)  a=users counted
  kScore,          // one user's score callback
  kSync,           // SyncService::Sync             a=subscribed b=shipped
  kParallelFor,    // ThreadPool::ParallelFor       a=slots b=n
  kTask,           // one ParallelFor task
  kSubmit,         // AsyncAggregator::Submit
  kMergeNext,      // AsyncAggregator::MergeNext    a=merged b=staleness
                   //                               group=1 if rejected
  kLoadRunState,   // LoadRunState                  a=file bytes
  kSaveRunState,   // SaveRunState
  kSaveCheckpoint, // SaveServerCheckpoint
  kCovariance,     // CovarianceMatrix (collapse diagnostic)
  kEigen,          // SymmetricEigenvalues (collapse diagnostic)
  kBeginRound,     // ServerApi::BeginRound
  kUpload,         // ServerApi::UploadDelta
  kFinishRound,    // ServerApi::FinishRound
  kApply,          // ServerApi::ApplyUpdate
  kDistill,        // ServerApi::Distill
  kAdmit,          // ServerApi::Admit               a=accepted
  kCount,
};

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  Layer layer = Layer::kRun;
  int group = -1;       // client group (kTrain), rejected flag (kMergeNext)
  uint32_t run = 0;
  uint32_t lane = 0;
  double start = 0.0;   // seconds since process start
  double end = 0.0;
  double a = 0.0;       // per-layer payload, see Layer
  double b = 0.0;
};

/// RAII span on the calling lane. `parent` = 0 takes the lane's innermost
/// open span.
class ScopedSpan {
 public:
  explicit ScopedSpan(Layer layer, uint64_t parent = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }
  void Set(double a, double b, int group = -1);

 private:
  uint32_t lane_;
  size_t index_;
  uint64_t id_;
};

/// Tags spans recorded from now on with `run`.
void SetRun(uint32_t run);

/// Moves every recorded span out of the lanes. Call only while no
/// ParallelFor is in flight (between ops).
std::vector<Span> TakeSpans();

/// Per-layer metrics of one Run, from its spans. `num_items` sizes
/// eval.items_scored. Also checks the span tree: every main-lane child
/// lies inside its parent and the main-lane self times sum to the Run
/// span; `tree_ok` reports it.
struct OpLayers {
  std::vector<std::pair<std::string, double>> metrics;
  double run_s = 0.0;
  double main_self_sum_s = 0.0;
  bool tree_ok = false;
};
OpLayers ComputeOpLayers(const std::vector<Span>& spans, size_t num_items);

/// data.generate_s, data.split_s, groups.assign_s of one Create.
std::vector<std::pair<std::string, double>> ComputeSetupLayers(
    const std::vector<Span>& spans);

/// Cost of recording one span, in ns: times a burst of empty spans, then
/// drops them. Call between ops.
double MeasureSpanCostNs();

/// Chrome trace-event JSON (Perfetto-loadable) of `spans`.
std::string SpansToChromeJson(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_TRACER_H_
