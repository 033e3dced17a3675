#ifndef SKYSCRAPER_API_CALLBACK_WORKLOAD_H_
#define SKYSCRAPER_API_CALLBACK_WORKLOAD_H_

#include <functional>
#include <string>
#include <utility>

#include "core/workload.h"

namespace sky::api {

/// Builds a Workload from plain callables — the C++ analogue of registering
/// UDFs and knobs against the Python API (Appendix F). The cost callback
/// corresponds to profiling the UDF DAG; the quality callback corresponds to
/// the quality field the user's proc_frame updates.
///
/// Like every core::Workload, the callables and `content` may be called from
/// several threads at once (the offline phase fans them across its pool), so
/// they must be safe to call concurrently.
class CallbackWorkload : public core::Workload {
 public:
  using CostFn = std::function<double(const core::KnobConfig&)>;
  using QualityFn =
      std::function<double(const core::KnobConfig&, const video::ContentState&)>;
  using GraphFn = std::function<dag::TaskGraph(
      const core::KnobConfig&, double, const sim::CostModel&)>;

  CallbackWorkload(std::string name, core::KnobSpace space,
                   const video::ContentProcess* content, CostFn cost,
                   QualityFn quality, GraphFn graph = nullptr);

  std::string name() const override { return name_; }
  const core::KnobSpace& knob_space() const override { return space_; }
  double CostCoreSecondsPerVideoSecond(
      const core::KnobConfig& config) const override;
  double TrueQuality(const core::KnobConfig& config,
                     const video::ContentState& content) const override;
  dag::TaskGraph BuildTaskGraph(const core::KnobConfig& config,
                                double segment_seconds,
                                const sim::CostModel& cost_model) const override;
  const video::ContentProcess& content_process() const override {
    return *content_;
  }

 private:
  std::string name_;
  core::KnobSpace space_;
  const video::ContentProcess* content_;
  CostFn cost_;
  QualityFn quality_;
  GraphFn graph_;
};

}  // namespace sky::api

#endif  // SKYSCRAPER_API_CALLBACK_WORKLOAD_H_
