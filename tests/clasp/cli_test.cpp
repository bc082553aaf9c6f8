#include "clasp/cli.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace clasp {
namespace {

cli_parse_result parse(std::vector<const char*> argv, cli_options& opts) {
  argv.insert(argv.begin(), "clasp_cli");
  return parse_cli_args(static_cast<int>(argv.size()), argv.data(), opts);
}

TEST(CliTest, ParsesRunWithCommonFlags) {
  cli_options opts;
  const auto r = parse({"run", "--region", "us-east1", "--days", "3",
                        "--tier", "standard", "--workers", "4",
                        "--seed", "99"},
                       opts);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(opts.command, "run");
  EXPECT_EQ(opts.region, "us-east1");
  EXPECT_EQ(opts.days, 3);
  EXPECT_EQ(opts.tier, "standard");
  EXPECT_EQ(opts.workers, 4);
  EXPECT_EQ(opts.seed, 99u);
}

TEST(CliTest, ParsesObservabilityFlags) {
  cli_options opts;
  const auto r = parse(
      {"run", "--metrics-out", "/tmp/m.prom", "--heartbeat-every", "6"},
      opts);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(opts.metrics_out, "/tmp/m.prom");
  EXPECT_EQ(opts.heartbeat_every, 6);
}

TEST(CliTest, ParsesFleetScale) {
  cli_options opts;
  const auto r = parse({"run", "--fleet-scale", "10"}, opts);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(opts.fleet_scale, 10);
  // Defaults to "use the config's value".
  cli_options defaults;
  ASSERT_TRUE(parse({"run"}, defaults).ok);
  EXPECT_EQ(defaults.fleet_scale, -1);
}

TEST(CliTest, RemovedSpeedKnobFlagsAreRejected) {
  // The condition cache and the batched sweep are always on; the old
  // flags are unknown, whatever their value.
  for (const char* flag : {"--link-cache", "--batch-eval"}) {
    for (const char* value : {"on", "off"}) {
      cli_options opts;
      const auto r = parse({"run", flag, value}, opts);
      EXPECT_FALSE(r.ok) << flag << " " << value;
      EXPECT_NE(r.error.find(std::string("unknown flag ") + flag),
                std::string::npos)
          << r.error;
    }
  }
}

TEST(CliTest, RejectsZeroFleetScaleWithGuidance) {
  cli_options opts;
  const auto r = parse({"run", "--fleet-scale", "0"}, opts);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("--fleet-scale must be an integer >= 1"),
            std::string::npos);
  // The message explains what the knob is and the paper-scale value.
  EXPECT_NE(r.error.find("--fleet-scale 1"), std::string::npos);
  EXPECT_FALSE(parse({"run", "--fleet-scale", "-4"}, opts).ok);
  EXPECT_FALSE(parse({"run", "--fleet-scale", "ten"}, opts).ok);
}

TEST(CliTest, FleetScaleTypoGetsSuggestion) {
  cli_options opts;
  const auto r = parse({"run", "--fleet-scal", "10"}, opts);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("did you mean --fleet-scale?"), std::string::npos);
}

TEST(CliTest, ParsesSwarmPreset) {
  cli_options opts;
  const auto r = parse({"select", "--swarm", "low"}, opts);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(opts.swarm, "low");
  // Default: empty = use the config's swarm settings.
  cli_options defaults;
  ASSERT_TRUE(parse({"select"}, defaults).ok);
  EXPECT_TRUE(defaults.swarm.empty());

  const auto bad = parse({"select", "--swarm", "extreme"}, opts);
  EXPECT_FALSE(bad.ok);
  EXPECT_NE(bad.error.find("--swarm must be off, low or high"),
            std::string::npos);

  cli_options typo;
  const auto suggest = parse({"select", "--swrm", "low"}, typo);
  EXPECT_FALSE(suggest.ok);
  EXPECT_NE(suggest.error.find("did you mean --swarm?"), std::string::npos);
}

TEST(CliTest, RejectsUnknownCommand) {
  cli_options opts;
  const auto r = parse({"explode"}, opts);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("unknown command"), std::string::npos);
}

TEST(CliTest, RejectsUnknownFlagWithSuggestion) {
  cli_options opts;
  const auto r = parse({"run", "--metrics-ot", "f"}, opts);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("unknown flag --metrics-ot"), std::string::npos);
  EXPECT_NE(r.error.find("did you mean --metrics-out?"), std::string::npos);

  cli_options opts2;
  const auto r2 = parse({"run", "--wrokers", "4"}, opts2);
  EXPECT_FALSE(r2.ok);
  EXPECT_NE(r2.error.find("did you mean --workers?"), std::string::npos);
}

TEST(CliTest, UnknownFlagFarFromAnythingGetsNoSuggestion) {
  cli_options opts;
  const auto r = parse({"run", "--zzzzqqqq", "1"}, opts);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("unknown flag --zzzzqqqq"), std::string::npos);
  EXPECT_EQ(r.error.find("did you mean"), std::string::npos);
}

TEST(CliTest, MissingValueNamesTheFlag) {
  cli_options opts;
  const auto r = parse({"run", "--region"}, opts);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, "missing value for --region");
}

TEST(CliTest, ValidatesValueRanges) {
  cli_options opts;
  EXPECT_FALSE(parse({"run", "--days", "0"}, opts).ok);
  EXPECT_FALSE(parse({"run", "--days", "154"}, opts).ok);
  EXPECT_FALSE(parse({"run", "--days", "seven"}, opts).ok);
  EXPECT_FALSE(parse({"run", "--tier", "gold"}, opts).ok);
  EXPECT_FALSE(parse({"run", "--workers", "-1"}, opts).ok);
  EXPECT_FALSE(parse({"run", "--faults", "medium"}, opts).ok);
  EXPECT_FALSE(parse({"run", "--swarm", "medium"}, opts).ok);
  EXPECT_FALSE(parse({"run", "--checkpoint-every", "0"}, opts).ok);
  EXPECT_FALSE(parse({"run", "--heartbeat-every", "0"}, opts).ok);
}

TEST(CliTest, ResumeRequiresCheckpointDir) {
  cli_options opts;
  const auto r = parse({"run", "--resume"}, opts);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("--resume requires --checkpoint-dir"),
            std::string::npos);

  cli_options opts2;
  const auto r2 =
      parse({"run", "--checkpoint-dir", "/tmp/ck", "--resume"}, opts2);
  ASSERT_TRUE(r2.ok) << r2.error;
  EXPECT_TRUE(opts2.resume);
  EXPECT_EQ(opts2.checkpoint_dir, "/tmp/ck");
}

TEST(CliTest, PositionalGarbageRejected) {
  cli_options opts;
  const auto r = parse({"run", "us-west1"}, opts);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("expected a --flag"), std::string::npos);
}

}  // namespace
}  // namespace clasp
