#include "router/round_plan.hpp"

#include <algorithm>
#include <utility>

namespace pelican::router {

RoundPlan plan_round(std::span<const serve::PredictRequest> requests,
                     std::span<const Outstanding> outstanding,
                     double elapsed_ms, const RoundPolicy& policy) {
  RoundPlan plan;
  plan.order.reserve(outstanding.size());  // positions in `outstanding` first
  for (std::size_t j = 0; j < outstanding.size(); ++j) {
    const double deadline_ms = requests[outstanding[j].index].deadline_ms;
    if (deadline_ms > 0.0 && elapsed_ms >= deadline_ms) {
      plan.shed.push_back(outstanding[j].index);
    } else {
      plan.order.push_back(j);
    }
  }
  std::ranges::sort(plan.order, {}, [&](std::size_t j) {
    return std::pair(outstanding[j].owner, j);
  });
  plan.batch.reserve(plan.order.size());
  for (std::size_t k = 0; k < plan.order.size(); ++k) {
    const Outstanding& out = outstanding[plan.order[k]];
    if (plan.groups.empty() || plan.groups.back().owner != out.owner) {
      plan.groups.push_back({out.owner, k, k});
    }
    ++plan.groups.back().end;
    serve::PredictRequest& request =
        plan.batch.emplace_back(requests[out.index]);
    if (request.deadline_ms > 0.0) {
      request.deadline_ms = std::max(0.001, request.deadline_ms - elapsed_ms);
    }
    plan.order[k] = out.index;
  }
  const double limit_ms = policy.request_timeout_ms;
  for (RoundGroup& group : plan.groups) {
    double left_ms = 0.0;  // the batch's largest remaining budget
    for (const serve::PredictRequest& request : plan.batch_of(group)) {
      left_ms = std::max(left_ms, request.deadline_ms);
    }
    group.timeout_ms = left_ms <= 0.0    ? limit_ms
                       : limit_ms <= 0.0 ? left_ms
                                         : std::min(limit_ms, left_ms);
    group.hedges = policy.hedge_delay_ms >= 0.0 &&
                   (group.timeout_ms <= 0.0 ||
                    policy.hedge_delay_ms < group.timeout_ms);
  }
  return plan;
}

}  // namespace pelican::router
