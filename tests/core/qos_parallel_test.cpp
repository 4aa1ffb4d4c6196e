// Determinism of the scale-out QoS engine (DESIGN.md §10): the parallel
// pass and the memoization tiers are pure performance features — every
// SubcycleQos field and every trace byte must be identical to the serial,
// memoization-free reference engine. The comparisons here are exact
// (EXPECT_EQ on doubles, byte-equal traces): "close" is a bug.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "core/system.hpp"
#include "core/testbed.hpp"
#include "obs/obs.hpp"

namespace {

using namespace cloudfog;

struct RunResult {
  std::vector<core::SubcycleQos> qos;
  std::string trace;
};

/// Runs `days` full cycles under a freshly reset recorder and returns the
/// per-subcycle QoS plus the raw trace bytes.
RunResult run_system(const core::Testbed& testbed, core::SystemConfig cfg, int days) {
  auto& rec = obs::Recorder::global();
  rec.reset();
  rec.set_enabled(true);
  std::ostringstream trace;
  rec.trace_buffer().set_sink(&trace);

  RunResult result;
  {
    core::System system(testbed, cfg, 97);
    const int per_day = testbed.activity().config().subcycles_per_day;
    for (int day = 1; day <= days; ++day) {
      system.begin_cycle(day);
      for (int s = 1; s <= per_day; ++s) {
        result.qos.push_back(system.run_subcycle(day, s, false, s >= 20));
      }
      system.end_cycle(day);
    }
  }

  rec.trace_buffer().flush();
  rec.trace_buffer().set_sink(nullptr);
  rec.set_enabled(false);
  rec.reset();
  result.trace = trace.str();
  return result;
}

void expect_identical(const RunResult& a, const RunResult& b) {
  ASSERT_EQ(a.qos.size(), b.qos.size());
  for (std::size_t i = 0; i < a.qos.size(); ++i) {
    SCOPED_TRACE("subcycle " + std::to_string(i));
    EXPECT_EQ(a.qos[i].avg_response_latency_ms, b.qos[i].avg_response_latency_ms);
    EXPECT_EQ(a.qos[i].avg_server_latency_ms, b.qos[i].avg_server_latency_ms);
    EXPECT_EQ(a.qos[i].avg_continuity, b.qos[i].avg_continuity);
    EXPECT_EQ(a.qos[i].satisfied_fraction, b.qos[i].satisfied_fraction);
    EXPECT_EQ(a.qos[i].avg_mos, b.qos[i].avg_mos);
    EXPECT_EQ(a.qos[i].cloud_egress_mbps, b.qos[i].cloud_egress_mbps);
    EXPECT_EQ(a.qos[i].online_sessions, b.qos[i].online_sessions);
    EXPECT_EQ(a.qos[i].fog_served, b.qos[i].fog_served);
    EXPECT_EQ(a.qos[i].cloud_served, b.qos[i].cloud_served);
    EXPECT_EQ(a.qos[i].cdn_served, b.qos[i].cdn_served);
  }
  EXPECT_EQ(a.trace, b.trace);
}

core::SystemConfig cloudfog_config() {
  core::SystemConfig cfg;
  cfg.architecture = core::Architecture::kCloudFog;
  cfg.supernode_count = 80;
  return cfg;
}

class QosParallelEquality : public ::testing::Test {
 protected:
  QosParallelEquality() : testbed_(core::TestbedConfig::peersim(1200), 7) {}
  core::Testbed testbed_;
};

TEST_F(QosParallelEquality, FourThreadsMatchSerialExactly) {
  auto cfg = cloudfog_config();
  cfg.qos.threads = 1;
  const RunResult serial = run_system(testbed_, cfg, 2);
  cfg.qos.threads = 4;
  const RunResult parallel = run_system(testbed_, cfg, 2);
  ASSERT_FALSE(serial.trace.empty());
  expect_identical(serial, parallel);
}

TEST_F(QosParallelEquality, MemoizationMatchesReferenceExactly) {
  auto cfg = cloudfog_config();
  cfg.qos.threads = 1;
  cfg.qos.memoize = false;
  const RunResult reference = run_system(testbed_, cfg, 2);
  cfg.qos.memoize = true;
  const RunResult memoized = run_system(testbed_, cfg, 2);
  expect_identical(reference, memoized);
}

TEST_F(QosParallelEquality, GridDiscoveryMatchesLinearExactly) {
  auto cfg = cloudfog_config();
  cfg.discovery = core::CandidateMode::kLinear;
  const RunResult linear = run_system(testbed_, cfg, 2);
  cfg.discovery = core::CandidateMode::kGrid;
  const RunResult grid = run_system(testbed_, cfg, 2);
  expect_identical(linear, grid);
}

TEST_F(QosParallelEquality, ParallelMatchesSerialUnderFaults) {
  auto cfg = cloudfog_config();
  cfg.faults.enabled = true;
  cfg.faults.faults_per_hour = 4.0;
  cfg.faults.seed = 11;
  cfg.qos.threads = 1;
  const RunResult serial = run_system(testbed_, cfg, 3);
  cfg.qos.threads = 3;  // odd shard split exercises uneven ranges
  const RunResult parallel = run_system(testbed_, cfg, 3);
  expect_identical(serial, parallel);
}

// The reference stack (linear + no memo + serial) against the full
// optimized stack (grid + memo + 4 threads): end-to-end byte equality.
TEST_F(QosParallelEquality, OptimizedStackMatchesReferenceStack) {
  auto cfg = cloudfog_config();
  cfg.discovery = core::CandidateMode::kLinear;
  cfg.qos.memoize = false;
  cfg.qos.threads = 1;
  const RunResult reference = run_system(testbed_, cfg, 2);
  cfg.discovery = core::CandidateMode::kGrid;
  cfg.qos.memoize = true;
  cfg.qos.threads = 4;
  const RunResult optimized = run_system(testbed_, cfg, 2);
  expect_identical(reference, optimized);
}

// Arrival-rate workload with provisioning: the online set is a sparse,
// shifting subset of the population, and every window's redeploy migrates
// the sessions on withdrawn supernodes. The dense work arrays and the
// prefetching pass must reproduce the reference engine exactly here too.
core::SystemConfig sparse_arrivals_config() {
  auto cfg = cloudfog_config();
  cfg.workload = core::WorkloadMode::kArrivalRates;
  cfg.strategies.provisioning = true;
  cfg.arrivals = core::ArrivalWorkload{0.6, 2.0};
  cfg.fixed_deployment = 40;
  return cfg;
}

std::size_t max_online(const RunResult& run) {
  std::size_t most = 0;
  for (const auto& q : run.qos) most = std::max(most, q.online_sessions);
  return most;
}

double mean_online(const RunResult& run) {
  std::size_t total = 0;
  for (const auto& q : run.qos) total += q.online_sessions;
  return static_cast<double>(total) / static_cast<double>(run.qos.size());
}

TEST_F(QosParallelEquality, SparseArrivalsMatchAcrossThreadsAndMemo) {
  auto cfg = sparse_arrivals_config();
  cfg.qos.threads = 1;
  cfg.qos.memoize = false;
  const RunResult reference = run_system(testbed_, cfg, 3);
  cfg.qos.memoize = true;
  const RunResult serial = run_system(testbed_, cfg, 3);
  cfg.qos.threads = 3;
  const RunResult parallel = run_system(testbed_, cfg, 3);

  // The regime under test: sessions online, on average under a fifth of
  // the population, and provisioning moved some of them.
  ASSERT_GT(max_online(serial), 0u);
  EXPECT_LT(mean_online(serial), 0.2 * static_cast<double>(testbed_.players().size()));
  EXPECT_NE(serial.trace.find("\"kind\":\"migration\""), std::string::npos);
  expect_identical(reference, serial);
  expect_identical(serial, parallel);
}

// So few sessions that every shard holds fewer work items than the
// prefetch distance (16): the look-ahead must stay inside each shard's
// range and the results must not change.
TEST_F(QosParallelEquality, ShardsShorterThanPrefetchDistanceMatchSerial) {
  auto cfg = sparse_arrivals_config();
  cfg.arrivals = core::ArrivalWorkload{0.05, 0.2};
  cfg.qos.threads = 1;
  const RunResult serial = run_system(testbed_, cfg, 2);
  cfg.qos.threads = 4;
  const RunResult parallel = run_system(testbed_, cfg, 2);

  ASSERT_GT(max_online(serial), 0u);
  EXPECT_LT(max_online(serial), 4u * 16u);
  expect_identical(serial, parallel);
}

}  // namespace
