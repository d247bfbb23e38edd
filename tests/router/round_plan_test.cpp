// router::plan_round, the pure half of Router::serve(): sheds, groups in
// owner-address order, decremented deadlines, exchange timeouts and the
// hedge rule. Named cases pin each rule with hand-picked numbers; the
// sweep checks every combination of deadline kind and owner for up to
// three requests and three owners, under every policy, against a
// reference written request by request.
#include "router/round_plan.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <vector>

namespace pelican::router {
namespace {

constexpr double kElapsedMs = 10.0;

/// Deadline kinds relative to kElapsedMs. "Over" leaves less than the
/// 1 us floor; "far" leaves 20 ms, below a 50 ms request timeout.
enum class Deadline { kNone, kAt, kUnder, kOver, kFar };
constexpr std::array kDeadlines = {Deadline::kNone, Deadline::kAt,
                                   Deadline::kUnder, Deadline::kOver,
                                   Deadline::kFar};

double deadline_ms(Deadline kind) {
  switch (kind) {
    case Deadline::kNone: return 0.0;
    case Deadline::kAt: return kElapsedMs;
    case Deadline::kUnder: return kElapsedMs - 0.0005;
    case Deadline::kOver: return kElapsedMs + 0.0005;
    case Deadline::kFar: return kElapsedMs + 20.0;
  }
  return 0.0;
}

/// Owner names whose address order differs from their first appearance.
const std::array<std::string, 3> kOwners = {"unix:/tmp/e2.sock",
                                            "tcp:127.0.0.1:7401",
                                            "unix:/tmp/e0.sock"};

serve::PredictRequest request(std::uint32_t user, double deadline) {
  serve::PredictRequest out;
  out.user_id = user;
  out.k = 1 + user % 4;
  out.trace_id = 100 + user;
  out.window.start_minute = 7 * user;
  out.window.steps[0].location = static_cast<std::uint16_t>(user);
  out.deadline_ms = deadline;
  return out;
}

std::vector<Outstanding> outstanding_of(
    std::span<const std::size_t> indices,
    std::span<const std::size_t> owner_of) {
  std::vector<Outstanding> out;
  for (const std::size_t i : indices) {
    out.push_back({i, kOwners[owner_of[i]]});
  }
  return out;
}

TEST(RoundPlanTest, ShedsAtAndPastTheDeadlineAndForwardsTheRest) {
  const std::vector<serve::PredictRequest> requests = {
      request(0, deadline_ms(Deadline::kAt)),
      request(1, deadline_ms(Deadline::kUnder)),
      request(2, deadline_ms(Deadline::kOver)),
      request(3, deadline_ms(Deadline::kNone)),
      request(4, deadline_ms(Deadline::kFar))};
  const std::vector<std::size_t> all = {0, 1, 2, 3, 4};
  const std::vector<std::size_t> owner_of = {0, 0, 0, 0, 0};
  const RoundPlan plan = plan_round(
      requests, outstanding_of(all, owner_of), kElapsedMs, {50.0, -1.0});
  EXPECT_EQ(plan.shed, (std::vector<std::size_t>{0, 1}))
      << "a deadline the elapsed time has reached is shed";
  EXPECT_EQ(plan.order, (std::vector<std::size_t>{2, 3, 4}));
  ASSERT_EQ(plan.batch.size(), 3u);
  EXPECT_EQ(plan.batch[0].deadline_ms, 0.001) << "floored at 1 us";
  EXPECT_EQ(plan.batch[1].deadline_ms, 0.0) << "no deadline stays none";
  EXPECT_DOUBLE_EQ(plan.batch[2].deadline_ms, 20.0);
}

TEST(RoundPlanTest, GroupsInterleavedOwnersInAddressOrder) {
  std::vector<serve::PredictRequest> requests;
  for (std::uint32_t user = 0; user < 6; ++user) {
    requests.push_back(request(user, 0.0));
  }
  // Owners by first appearance: 0, 1, 2; by address: 1, 2, 0. A failover
  // round's outstanding list need not be ascending.
  const std::vector<std::size_t> owner_of = {0, 1, 0, 2, 1, 2};
  const std::vector<std::size_t> outstanding = {5, 0, 1, 2, 3, 4};
  const RoundPlan plan =
      plan_round(requests, outstanding_of(outstanding, owner_of), kElapsedMs,
                 {0.0, -1.0});
  EXPECT_TRUE(plan.shed.empty());
  ASSERT_EQ(plan.groups.size(), 3u);
  EXPECT_EQ(plan.groups[0].owner, kOwners[1]);
  EXPECT_EQ(plan.groups[1].owner, kOwners[2]);
  EXPECT_EQ(plan.groups[2].owner, kOwners[0]);
  const auto order = [&](std::size_t g) {
    const auto span = plan.order_of(plan.groups[g]);
    return std::vector<std::size_t>(span.begin(), span.end());
  };
  EXPECT_EQ(order(0), (std::vector<std::size_t>{1, 4}));
  EXPECT_EQ(order(1), (std::vector<std::size_t>{5, 3}));
  EXPECT_EQ(order(2), (std::vector<std::size_t>{0, 2}));
  for (std::size_t k = 0; k < plan.order.size(); ++k) {
    EXPECT_EQ(plan.batch[k].user_id, plan.order[k]);
  }
}

TEST(RoundPlanTest, TimeoutTightensToTheLargestRemainingBudget) {
  const std::vector<serve::PredictRequest> requests = {
      request(0, deadline_ms(Deadline::kFar)),
      request(1, deadline_ms(Deadline::kOver)),
      request(2, 0.0)};
  const std::vector<std::size_t> one = {0, 1};
  const std::vector<std::size_t> owner_of = {0, 0, 1};
  const auto timeout = [&](std::span<const std::size_t> indices,
                           double limit_ms) {
    const RoundPlan plan = plan_round(
        requests, outstanding_of(indices, owner_of), kElapsedMs,
        {limit_ms, -1.0});
    return plan.groups.at(0).timeout_ms;
  };
  EXPECT_DOUBLE_EQ(timeout(one, 50.0), 20.0) << "the budget is tighter";
  EXPECT_DOUBLE_EQ(timeout(one, 5.0), 5.0) << "the limit is tighter";
  EXPECT_DOUBLE_EQ(timeout(one, 0.0), 20.0) << "no limit: the budget";
  EXPECT_DOUBLE_EQ(timeout(one, -1.0), 20.0);
  const std::vector<std::size_t> none = {2};
  EXPECT_DOUBLE_EQ(timeout(none, 50.0), 50.0) << "no budget: the limit";
  EXPECT_LE(timeout(none, 0.0), 0.0) << "neither: unbounded";
}

TEST(RoundPlanTest, HedgesOnlyWhenDueBeforeTheTimeout) {
  const std::vector<serve::PredictRequest> requests = {request(0, 0.0)};
  const std::vector<Outstanding> outstanding = {{0, kOwners[0]}};
  const auto hedges = [&](double limit_ms, double delay_ms) {
    return plan_round(requests, outstanding, kElapsedMs, {limit_ms, delay_ms})
        .groups.at(0)
        .hedges;
  };
  EXPECT_FALSE(hedges(50.0, -1.0)) << "hedging off";
  EXPECT_TRUE(hedges(50.0, 0.0));
  EXPECT_TRUE(hedges(50.0, 49.0)) << "due before the timeout";
  EXPECT_FALSE(hedges(50.0, 50.0)) << "due at the timeout";
  EXPECT_FALSE(hedges(50.0, 51.0)) << "due after the timeout";
  EXPECT_TRUE(hedges(0.0, 1e9)) << "no timeout to beat";
  EXPECT_TRUE(hedges(-1.0, 1e9));
}

TEST(RoundPlanTest, EmptyAndAllShedRoundsPlanNoGroup) {
  const std::vector<serve::PredictRequest> requests = {
      request(0, deadline_ms(Deadline::kAt))};
  EXPECT_TRUE(plan_round(requests, {}, kElapsedMs, {}).groups.empty());
  const RoundPlan plan =
      plan_round(requests, std::vector<Outstanding>{{0, kOwners[0]}},
                 kElapsedMs, {});
  EXPECT_EQ(plan.shed, std::vector<std::size_t>{0});
  EXPECT_TRUE(plan.groups.empty());
  EXPECT_TRUE(plan.order.empty());
}

/// The plan of one round, derived request by request: the spec the sweep
/// holds plan_round to.
struct Expected {
  std::vector<std::size_t> shed;
  std::vector<std::string> owners;
  std::vector<std::vector<std::size_t>> groups;
  std::vector<double> timeouts;
  std::vector<bool> hedges;
};

Expected reference(std::span<const serve::PredictRequest> requests,
                   std::span<const std::size_t> outstanding,
                   std::span<const std::size_t> owner_of,
                   const RoundPolicy& policy) {
  Expected out;
  std::vector<std::string> owners;
  for (const std::size_t i : outstanding) {
    const double deadline = requests[i].deadline_ms;
    if (deadline > 0.0 && deadline <= kElapsedMs) {
      out.shed.push_back(i);
    } else {
      owners.push_back(kOwners[owner_of[i]]);
    }
  }
  std::sort(owners.begin(), owners.end());
  owners.erase(std::unique(owners.begin(), owners.end()), owners.end());
  for (const std::string& owner : owners) {
    std::vector<std::size_t> group;
    double left = 0.0;
    for (const std::size_t i : outstanding) {
      const double deadline = requests[i].deadline_ms;
      if (kOwners[owner_of[i]] != owner) continue;
      if (deadline > 0.0 && deadline <= kElapsedMs) continue;
      group.push_back(i);
      if (deadline > 0.0) {
        left = std::max(left, std::max(0.001, deadline - kElapsedMs));
      }
    }
    double timeout = policy.request_timeout_ms;
    if (left > 0.0 && (timeout <= 0.0 || left < timeout)) timeout = left;
    out.owners.push_back(owner);
    out.groups.push_back(group);
    out.timeouts.push_back(timeout);
    out.hedges.push_back(policy.hedge_delay_ms >= 0.0 &&
                         (timeout <= 0.0 || policy.hedge_delay_ms < timeout));
  }
  return out;
}

TEST(RoundPlanTest, SweepMatchesTheReference) {
  // Hedge delays before, at and after both a 20 ms budget and a 50 ms
  // limit; timeouts none (0 and -1) and 50 ms.
  const std::array<double, 3> limits = {0.0, -1.0, 50.0};
  const std::array<double, 7> delays = {-1.0, 0.0, 5.0, 20.0, 35.0, 50.0, 80.0};
  std::size_t plans = 0;
  for (std::size_t n = 0; n <= 3; ++n) {
    std::size_t owner_cases = 1;
    std::size_t deadline_cases = 1;
    for (std::size_t i = 0; i < n; ++i) {
      owner_cases *= kOwners.size();
      deadline_cases *= kDeadlines.size();
    }
    for (std::size_t oc = 0; oc < owner_cases; ++oc) {
      for (std::size_t dc = 0; dc < deadline_cases; ++dc) {
        std::vector<serve::PredictRequest> requests;
        std::vector<std::size_t> owner_of;
        std::vector<std::size_t> outstanding;
        for (std::size_t i = 0, o = oc, d = dc; i < n; ++i) {
          const Deadline kind = kDeadlines[d % kDeadlines.size()];
          requests.push_back(
              request(static_cast<std::uint32_t>(i), deadline_ms(kind)));
          owner_of.push_back(o % kOwners.size());
          outstanding.push_back(n - 1 - i);  // descending, as after failover
          o /= kOwners.size();
          d /= kDeadlines.size();
        }
        const auto outs = outstanding_of(outstanding, owner_of);
        for (const double limit : limits) {
          for (const double delay : delays) {
            const RoundPolicy policy{limit, delay};
            const RoundPlan plan =
                plan_round(requests, outs, kElapsedMs, policy);
            const Expected want =
                reference(requests, outstanding, owner_of, policy);
            const std::string where =
                "n=" + std::to_string(n) + " owners=" + std::to_string(oc) +
                " deadlines=" + std::to_string(dc) +
                " limit=" + std::to_string(limit) +
                " delay=" + std::to_string(delay);
            ASSERT_EQ(plan.shed, want.shed) << where;
            ASSERT_EQ(plan.groups.size(), want.groups.size()) << where;
            ASSERT_EQ(plan.order.size(), plan.batch.size()) << where;
            for (std::size_t g = 0; g < plan.groups.size(); ++g) {
              const RoundGroup& group = plan.groups[g];
              const auto order = plan.order_of(group);
              ASSERT_EQ(group.owner, want.owners[g]) << where;
              ASSERT_EQ(std::vector<std::size_t>(order.begin(), order.end()),
                        want.groups[g])
                  << where;
              ASSERT_EQ(group.timeout_ms, want.timeouts[g]) << where;
              ASSERT_EQ(group.hedges, want.hedges[g]) << where;
              const auto batch = plan.batch_of(group);
              for (std::size_t k = 0; k < order.size(); ++k) {
                serve::PredictRequest sent = requests[order[k]];
                if (sent.deadline_ms > 0.0) {
                  sent.deadline_ms =
                      std::max(0.001, sent.deadline_ms - kElapsedMs);
                }
                ASSERT_EQ(batch[k].user_id, sent.user_id) << where;
                ASSERT_EQ(batch[k].k, sent.k) << where;
                ASSERT_EQ(batch[k].trace_id, sent.trace_id) << where;
                ASSERT_EQ(batch[k].window, sent.window) << where;
                ASSERT_EQ(batch[k].deadline_ms, sent.deadline_ms) << where;
              }
            }
            ++plans;
          }
        }
      }
    }
  }
  // 1 + 15 + 225 + 3375 request shapes, 21 policies each.
  EXPECT_EQ(plans, (1u + 15u + 225u + 3375u) * 21u);
}

}  // namespace
}  // namespace pelican::router
