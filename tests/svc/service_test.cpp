// The campaign service end to end: multi-tenant scheduling under a
// shared budget, pause/resume/cancel mid-flight, daemon restart
// recovery, per-campaign checkpoint isolation — and the core contract
// that every service campaign's output is byte-identical to a batch-
// mode run of the same spec.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "clasp/platform.hpp"
#include "svc/service.hpp"
#include "svc_test_support.hpp"
#include "util/error.hpp"

namespace clasp::svc {
namespace {

namespace fs = std::filesystem;

using ::clasp::svc::testing::batch_baseline_csv;
using ::clasp::svc::testing::read_file;
using ::clasp::svc::testing::svc_test_dir;
using ::clasp::svc::testing::tiny_base_config;
using ::clasp::svc::testing::tiny_service_config;

campaign_spec spec_of(std::uint64_t seed, int days = 1, bool durable = true) {
  campaign_spec spec;
  spec.days = days;
  spec.seed = seed;
  spec.durable = durable;
  return spec;
}

TEST(SvcService, ConcurrentTenantsOverQuotaAllMatchBatch) {
  const fs::path dir = svc_test_dir("clasp_svc_multi");
  // Budget 4 with 2-unit campaigns: at most two run concurrently, so
  // four submissions are over quota and must queue + time-slice.
  campaign_service service(tiny_service_config(dir));
  const std::uint64_t a1 = service.submit("alice", spec_of(41));
  const std::uint64_t a2 = service.submit("alice", spec_of(42, 1, false));
  const std::uint64_t b1 = service.submit("bob", spec_of(43));
  const std::uint64_t b2 = service.submit("bob", spec_of(44, 1, false));

  service.run_to_idle();

  const service_status s = service.status_summary();
  EXPECT_EQ(s.done, 4u);
  EXPECT_EQ(s.queued + s.admitted + s.running + s.failed, 0u);
  EXPECT_EQ(s.reserved_units, 0u);
  EXPECT_EQ(s.resident, 0u);  // every session released on completion
  // Over-quota scheduling means somebody's quantum expired unfinished.
  EXPECT_GE(s.preemptions, 1u);

  for (const std::uint64_t id : {a1, a2, b1, b2}) {
    const campaign_status st = service.status_of(id);
    EXPECT_EQ(st.state, "done") << "campaign " << id;
    EXPECT_EQ(st.cursor_hours, st.end_hours);
    EXPECT_EQ(read_file(service.results_path(id)),
              batch_baseline_csv(service.registry().record(id).spec))
        << "campaign " << id << " diverged from its batch-mode twin";
  }
  fs::remove_all(dir);
}

TEST(SvcService, SubmitGatesBudgetQuotaAndDuplicates) {
  const fs::path dir = svc_test_dir("clasp_svc_gates");
  platform_config cfg = tiny_service_config(dir);
  cfg.service.tenant_max_active = 3;
  campaign_service service(cfg);

  // A spec whose units alone exceed the budget could never run.
  campaign_spec huge = spec_of(7);
  huge.workers = 8;  // budget is 4
  EXPECT_THROW(service.submit("alice", huge), budget_exceeded_error);

  // seed 0 = service assigns: reported back, never 0.
  const std::uint64_t id = service.submit("alice", spec_of(0));
  EXPECT_NE(service.status_of(id).seed, 0u);

  // Duplicate active identity from the same tenant — an operational
  // tweak (workers) doesn't dodge the fingerprint check.
  const std::uint64_t dup = service.submit("alice", spec_of(41));
  campaign_spec tweaked = spec_of(41);
  tweaked.workers = 1;
  EXPECT_THROW(service.submit("alice", tweaked), state_error);
  // Bob may run the same identity alice holds.
  EXPECT_NO_THROW(service.submit("bob", spec_of(41)));
  // Fill alice to tenant_max_active 3: the next submit is refused by
  // quota (the submit-time gate runs before the duplicate check).
  service.submit("alice", spec_of(55));
  EXPECT_THROW(service.submit("alice", spec_of(77)), budget_exceeded_error);
  // Cancelling frees both the quota slot and the identity.
  service.cancel_campaign(dup);
  EXPECT_NO_THROW(service.submit("alice", spec_of(41)));
  fs::remove_all(dir);
}

TEST(SvcService, PauseFreesBudgetResumeFinishesIdentically) {
  const fs::path dir = svc_test_dir("clasp_svc_pause");
  campaign_service service(tiny_service_config(dir));
  const std::uint64_t id = service.submit("alice", spec_of(42));

  // One tick: admitted -> running -> one 5h quantum.
  EXPECT_TRUE(service.tick());
  EXPECT_EQ(service.status_of(id).state, "running");
  EXPECT_GT(service.status_of(id).cursor_hours,
            service.status_of(id).begin_hours);

  service.pause_campaign(id);
  const campaign_status paused = service.status_of(id);
  EXPECT_EQ(paused.state, "paused");
  // A paused campaign holds no budget and no memory — only checkpoints.
  EXPECT_EQ(service.status_summary().reserved_units, 0u);
  EXPECT_EQ(service.status_summary().resident, 0u);
  EXPECT_FALSE(service.tick());  // nothing runnable while paused

  // Another tenant takes the freed budget meanwhile.
  const std::uint64_t other = service.submit("bob", spec_of(99));
  service.run_to_idle();
  EXPECT_EQ(service.status_of(other).state, "done");
  EXPECT_EQ(service.status_of(id).state, "paused");

  service.resume_campaign(id);
  service.run_to_idle();
  EXPECT_EQ(service.status_of(id).state, "done");
  // The resumed session warm-started from the pause checkpoint...
  EXPECT_GE(service.status_summary().warm_resumes, 1u);
  // ...and the sliced run's bytes match the uninterrupted twin's.
  EXPECT_EQ(read_file(service.results_path(id)),
            batch_baseline_csv(spec_of(42)));
  EXPECT_EQ(read_file(service.results_path(other)),
            batch_baseline_csv(spec_of(99)));
  fs::remove_all(dir);
}

TEST(SvcService, CancelMidFlightDropsSessionAndRefusesRevival) {
  const fs::path dir = svc_test_dir("clasp_svc_cancel");
  campaign_service service(tiny_service_config(dir));
  const std::uint64_t id = service.submit("alice", spec_of(42));
  EXPECT_TRUE(service.tick());
  service.cancel_campaign(id);
  EXPECT_EQ(service.status_of(id).state, "cancelled");
  EXPECT_EQ(service.status_summary().resident, 0u);
  EXPECT_FALSE(fs::exists(service.results_path(id)));  // never harvested
  // Terminal: neither pause nor resume nor cancel applies again.
  EXPECT_THROW(service.pause_campaign(id), state_error);
  EXPECT_THROW(service.resume_campaign(id), state_error);
  EXPECT_THROW(service.cancel_campaign(id), state_error);
  // The identity is free again immediately.
  EXPECT_NO_THROW(service.submit("alice", spec_of(42)));
  fs::remove_all(dir);
}

TEST(SvcService, RestartRecoversQueueAndOutputBytes) {
  const fs::path dir = svc_test_dir("clasp_svc_restart");
  const platform_config cfg = tiny_service_config(dir);
  std::uint64_t durable_id = 0, ephemeral_id = 0;
  {
    campaign_service first(cfg);
    durable_id = first.submit("alice", spec_of(42));
    ephemeral_id = first.submit("bob", spec_of(43, 1, false));
    // A few quanta of progress, then the daemon "dies" (destructor, no
    // drain): exactly what kill -9 leaves behind — the tick-persisted
    // registry plus whatever checkpoints the cadence published.
    EXPECT_TRUE(first.tick());
    EXPECT_TRUE(first.tick());
    EXPECT_TRUE(first.tick());
    EXPECT_GT(first.status_of(durable_id).cursor_hours,
              first.status_of(durable_id).begin_hours);
  }

  campaign_service second(cfg);
  // Reload demoted the in-flight records to queued; nothing was lost
  // but un-checkpointed hours.
  EXPECT_EQ(second.status_of(durable_id).state, "queued");
  EXPECT_EQ(second.status_of(ephemeral_id).state, "queued");
  second.run_to_idle();
  EXPECT_EQ(second.status_of(durable_id).state, "done");
  EXPECT_EQ(second.status_of(ephemeral_id).state, "done");
  // The durable campaign resumed from its checkpoint; the ephemeral one
  // restarted from scratch. Both must still match batch mode exactly.
  EXPECT_GE(second.status_summary().warm_resumes, 1u);
  EXPECT_EQ(read_file(second.results_path(durable_id)),
            batch_baseline_csv(spec_of(42)));
  EXPECT_EQ(read_file(second.results_path(ephemeral_id)),
            batch_baseline_csv(spec_of(43, 1, false)));
  fs::remove_all(dir);
}

TEST(SvcService, EvictionWarmResumesDurableSessions) {
  const fs::path dir = svc_test_dir("clasp_svc_evict");
  platform_config cfg = tiny_service_config(dir);
  cfg.service.max_resident = 1;  // every switch evicts the other session
  campaign_service service(cfg);
  const std::uint64_t a = service.submit("alice", spec_of(42));
  const std::uint64_t b = service.submit("bob", spec_of(43));
  service.run_to_idle();
  const service_status s = service.status_summary();
  EXPECT_EQ(s.done, 2u);
  EXPECT_GE(s.evictions, 1u);
  EXPECT_GE(s.warm_resumes, 1u);
  EXPECT_EQ(read_file(service.results_path(a)), batch_baseline_csv(spec_of(42)));
  EXPECT_EQ(read_file(service.results_path(b)), batch_baseline_csv(spec_of(43)));
  fs::remove_all(dir);
}

TEST(SvcService, NonDurableSessionsArePinnedNotEvicted) {
  const fs::path dir = svc_test_dir("clasp_svc_pinned");
  platform_config cfg = tiny_service_config(dir);
  cfg.service.max_resident = 1;
  campaign_service service(cfg);
  const std::uint64_t a = service.submit("alice", spec_of(42, 1, false));
  const std::uint64_t b = service.submit("bob", spec_of(43, 1, false));
  service.run_to_idle();
  const service_status s = service.status_summary();
  EXPECT_EQ(s.done, 2u);
  // Evicting an ephemeral session would lose its progress: the
  // scheduler over-commits residency instead.
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(read_file(service.results_path(a)), batch_baseline_csv(spec_of(42, 1, false)));
  EXPECT_EQ(read_file(service.results_path(b)), batch_baseline_csv(spec_of(43, 1, false)));
  fs::remove_all(dir);
}

// Satellite: the checkpoint-subdir collision fix. Two campaigns with
// the same label + region may never share a checkpoint subdirectory —
// they would overwrite each other's checkpoints.
TEST(SvcIsolation, CheckpointSubdirCollisionIsATypedError) {
  const fs::path dir = svc_test_dir("clasp_svc_collision");
  platform_config cfg = tiny_base_config();
  cfg.campaign_checkpoint_dir = (dir / "ckpt").string();
  const hour_range window{hour_stamp::from_civil({2020, 5, 1}, 0),
                          hour_stamp::from_civil({2020, 5, 1}, 0) + 24};
  clasp_platform platform(cfg);
  platform.start_topology_campaign("us-west1", window);
  EXPECT_THROW(platform.start_topology_campaign("us-west1", window),
               state_error);
  fs::remove_all(dir);
}

TEST(SvcIsolation, NamespaceSeparatesIdenticalCampaigns) {
  const fs::path dir = svc_test_dir("clasp_svc_namespace");
  // Two platforms, same checkpoint root, same label + region — the
  // per-(tenant, id) namespace the scheduler injects keeps them apart.
  platform_config cfg_a = tiny_base_config();
  cfg_a.campaign_checkpoint_dir = (dir / "ckpt").string();
  cfg_a.campaign_namespace = "alice-1";
  platform_config cfg_b = cfg_a;
  cfg_b.campaign_namespace = "bob-2";
  const hour_range window{hour_stamp::from_civil({2020, 5, 1}, 0),
                          hour_stamp::from_civil({2020, 5, 1}, 0) + 24};
  clasp_platform pa(cfg_a);
  clasp_platform pb(cfg_b);
  campaign_runner& ca = pa.start_topology_campaign("us-west1", window);
  campaign_runner& cb = pb.start_topology_campaign("us-west1", window);
  EXPECT_NE(ca.config().checkpoint_dir, cb.config().checkpoint_dir);
  EXPECT_NE(ca.config().checkpoint_dir.find("alice-1"), std::string::npos);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace clasp::svc
