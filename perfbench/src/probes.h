// Layer probes for the campaign benchmark: an in-memory span log and a
// forwarding nvbit::Tool that wraps the real experiment tool.
//
// Everything here observes the libraries from outside, through their public
// API: the forwarding tool sees exactly the callbacks the runtime delivers to
// the wrapped tool and forwards each one unchanged, so a probed experiment
// produces the same records, cycles and outputs as an unprobed one.
#pragma once

#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/experiment_tool.h"
#include "nvbit/nvbit.h"

namespace perfbench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One traced interval.  Spans of one experiment share `request`; `count`
// carries the number of events a summary span stands for (e.g. callbacks).
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::string name;
  std::string request;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t count = 1;
};

// Spans are kept in memory and written out once, when the run ends.  While
// disabled, NextId() returns 0 and Record() drops the span, so the untraced
// path costs one branch per call site.
class SpanLog {
 public:
  void set_enabled(bool enabled) { enabled_ = enabled; }

  std::uint64_t NextId() { return enabled_ ? ++last_id_ : 0; }
  void Record(std::uint64_t id, std::uint64_t parent, std::string name,
              std::string request, std::int64_t start_ns, std::int64_t end_ns,
              std::uint64_t count = 1);

  const std::vector<Span>& spans() const { return spans_; }

  // Chrome trace-event JSON ("X" events; ids and parents in args), readable
  // by chrome://tracing and Perfetto.  False when the file cannot be written.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::uint64_t last_id_ = 0;
  std::vector<Span> spans_;
};

// Records a span from construction to destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::uint64_t parent, std::string name, std::string request = {})
      : log_(log), id_(log.NextId()), parent_(parent), name_(std::move(name)),
        request_(std::move(request)), start_ns_(NowNs()) {}
  ~ScopedSpan() {
    if (id_ != 0) log_.Record(id_, parent_, name_, request_, start_ns_, NowNs());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return id_; }

 private:
  SpanLog& log_;
  std::uint64_t id_;
  std::uint64_t parent_;
  std::string name_;
  std::string request_;
  std::int64_t start_ns_;
};

// What the forwarding tool saw during one run.  Timestamps are 0 until the
// event happened.
struct RunProbe {
  std::int64_t factory_ns = 0;         // tool built (transient experiments)
  std::int64_t attach_ns = 0;          // runtime attached: the run starts
  std::int64_t module_loaded_ns = 0;   // first module-loaded callback
  std::int64_t inject_end_ns = 0;      // campaign read the injection record
  std::int64_t classify_start_ns = 0;  // campaign took the propagation record
  std::int64_t callback_ns = 0;        // time inside the wrapped tool's callbacks
  std::uint64_t callbacks = 0;
  // Launch-end callbacks fire for fast-forwarded launches too (with the
  // recorded stats), so these sums cover the whole run.
  std::uint64_t launch_thread_instructions = 0;
  std::uint64_t warp_issues = 0;
  std::uint64_t lane_events = 0;
  // Thread-instructions of launches before `target_ordinal` (the fault's
  // launch): the prefix checkpoint replay may skip.
  std::uint64_t target_ordinal = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t pre_target_thread_instructions = 0;
};

// Forwards every nvbit::Tool call to `inner` and notes it in a RunProbe.
// With `time_callbacks` the wrapped tool's callback time is summed too.
template <class Base>
class ForwardingTool : public Base {
 public:
  ForwardingTool(std::unique_ptr<Base> inner, RunProbe* probe, bool time_callbacks)
      : inner_(std::move(inner)), probe_(probe), time_callbacks_(time_callbacks) {}

  std::string ConfigKey() const override { return inner_->ConfigKey(); }

  void OnAttach(nvbitfi::nvbit::Runtime& runtime) override {
    probe_->attach_ns = NowNs();
    inner_->OnAttach(runtime);
  }

  void AtCudaEvent(nvbitfi::nvbit::Runtime& runtime, nvbitfi::nvbit::CudaEvent event,
                   const nvbitfi::nvbit::EventInfo& info) override {
    if (event == nvbitfi::nvbit::CudaEvent::kModuleLoaded && probe_->module_loaded_ns == 0) {
      probe_->module_loaded_ns = NowNs();
    }
    if (time_callbacks_) {
      const std::int64_t start = NowNs();
      inner_->AtCudaEvent(runtime, event, info);
      probe_->callback_ns += NowNs() - start;
    } else {
      inner_->AtCudaEvent(runtime, event, info);
    }
    ++probe_->callbacks;
    if (event == nvbitfi::nvbit::CudaEvent::kKernelLaunchEnd && info.stats != nullptr) {
      probe_->launch_thread_instructions += info.stats->thread_instructions;
      probe_->warp_issues += info.stats->warp_instructions;
      probe_->lane_events += info.stats->lane_events;
      if (info.launch != nullptr && info.launch->global_ordinal < probe_->target_ordinal) {
        probe_->pre_target_thread_instructions += info.stats->thread_instructions;
      }
    }
  }

 protected:
  std::unique_ptr<Base> inner_;
  RunProbe* probe_;
  bool time_callbacks_;
};

// The transient-experiment form: the campaign reads the injection record
// right after the run and takes the propagation record right before
// classifying, which bounds the inject and classify phases from outside.
class ProbedExperimentTool final
    : public ForwardingTool<nvbitfi::fi::TransientExperimentTool> {
 public:
  using ForwardingTool::ForwardingTool;

  const nvbitfi::fi::InjectionRecord& record() const override {
    if (probe_->inject_end_ns == 0) probe_->inject_end_ns = NowNs();
    return inner_->record();
  }
  std::optional<nvbitfi::trace::PropagationRecord> TakePropagation() override {
    probe_->classify_start_ns = NowNs();
    return inner_->TakePropagation();
  }
};

// Peak resident set size of this process so far (VmHWM), in MB.
double PeakRssMb();

}  // namespace perfbench
