#include "faults/domain_tree.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "faults/campaign.hpp"

namespace capgpu::faults {
namespace {

DomainFault fault_of(DomainFaultKind kind, double start, double duration,
                     double magnitude = 0.3) {
  DomainFault f;
  f.kind = kind;
  f.start_s = start;
  f.duration_s = duration;
  f.magnitude = magnitude;
  return f;
}

TEST(DomainTree, RigPathsEnumerateDepthFirst) {
  DomainTree tree({2, 2, 2}, 1);
  ASSERT_EQ(tree.rig_count(), 8u);
  EXPECT_EQ(tree.rig_path(0), "rack0/pdu0/rig0");
  EXPECT_EQ(tree.rig_path(3), "rack0/pdu1/rig1");
  EXPECT_EQ(tree.rig_path(4), "rack1/pdu0/rig0");
  EXPECT_EQ(tree.rig_path(7), "rack1/pdu1/rig1");
}

TEST(DomainTree, RigsUnderSelectsDescendantsOnly) {
  DomainTree tree({2, 2, 2}, 1);
  EXPECT_EQ(tree.rigs_under("").size(), 8u);
  EXPECT_EQ(tree.rigs_under("rack1"), (std::vector<std::size_t>{4, 5, 6, 7}));
  EXPECT_EQ(tree.rigs_under("rack0/pdu1"), (std::vector<std::size_t>{2, 3}));
  EXPECT_EQ(tree.rigs_under("rack1/pdu0/rig1"),
            (std::vector<std::size_t>{5}));
}

TEST(DomainTree, FaultFansOutToDescendantsOnly) {
  DomainTree tree({1, 2, 2}, 7);
  tree.add_fault("rack0/pdu0",
                 fault_of(DomainFaultKind::kBrownout, 100.0, 50.0));
  for (const std::size_t rig : {0u, 1u}) {
    const hal::FaultPlan plan = tree.rig_plan(rig);
    ASSERT_EQ(plan.meter_dark.size(), 1u) << "rig " << rig;
    EXPECT_DOUBLE_EQ(plan.meter_dark[0].start.value, 100.0);
    EXPECT_DOUBLE_EQ(plan.meter_dark[0].end.value, 150.0);
  }
  for (const std::size_t rig : {2u, 3u}) {
    EXPECT_TRUE(tree.rig_plan(rig).meter_dark.empty()) << "rig " << rig;
  }
}

TEST(DomainTree, FaultClassesMapToHalWindows) {
  DomainTree tree({1, 1, 1}, 7);
  tree.add_fault("", fault_of(DomainFaultKind::kMeterBug, 10.0, 5.0));
  tree.add_fault("", fault_of(DomainFaultKind::kBlackout, 30.0, 5.0));
  tree.add_fault("", fault_of(DomainFaultKind::kBudgetSlash, 50.0, 5.0));
  const hal::FaultPlan plan = tree.rig_plan(0);
  ASSERT_EQ(plan.meter_nan.size(), 1u);
  EXPECT_DOUBLE_EQ(plan.meter_nan[0].start.value, 10.0);
  // Blackout darkens the meter and blacks out actuation; budget_slash adds
  // nothing to the rig plan (pure budget event).
  ASSERT_EQ(plan.meter_dark.size(), 1u);
  EXPECT_DOUBLE_EQ(plan.meter_dark[0].start.value, 30.0);
  ASSERT_EQ(plan.actuation_blackout.size(), 1u);
  EXPECT_DOUBLE_EQ(plan.actuation_blackout[0].end.value, 35.0);
  // Only the budget_slash produced a budget event.
  ASSERT_EQ(tree.budget_events().size(), 1u);
  EXPECT_EQ(tree.budget_events()[0].kind, DomainFaultKind::kBudgetSlash);
}

TEST(DomainTree, PlanSeedIgnoresUnrelatedInsertionOrder) {
  const auto brown = fault_of(DomainFaultKind::kBrownout, 100.0, 50.0);
  const auto bug = fault_of(DomainFaultKind::kMeterBug, 10.0, 5.0);
  DomainTree a({1, 2, 2}, 42);
  a.add_fault("rack0/pdu0", brown);
  a.add_fault("rack0/pdu1", bug);
  DomainTree b({1, 2, 2}, 42);
  b.add_fault("rack0/pdu1", bug);
  b.add_fault("rack0/pdu0", brown);
  for (std::size_t rig = 0; rig < 4; ++rig) {
    const hal::FaultPlan pa = a.rig_plan(rig);
    const hal::FaultPlan pb = b.rig_plan(rig);
    EXPECT_EQ(pa.seed, pb.seed) << "rig " << rig;
    EXPECT_EQ(pa.meter_dark.size(), pb.meter_dark.size()) << "rig " << rig;
    EXPECT_EQ(pa.meter_nan.size(), pb.meter_nan.size()) << "rig " << rig;
  }
  // Different rigs draw from different streams.
  EXPECT_NE(a.rig_plan(0).seed, a.rig_plan(1).seed);
}

TEST(DomainTree, BudgetScaleMultipliesActiveEvents) {
  DomainTree tree({1, 2, 2}, 1);
  tree.add_fault("rack0/pdu0",
                 fault_of(DomainFaultKind::kBrownout, 100.0, 100.0, 0.3));
  tree.add_fault("rack0",
                 fault_of(DomainFaultKind::kBudgetSlash, 150.0, 100.0, 0.5));
  EXPECT_DOUBLE_EQ(tree.budget_scale(50.0), 1.0);
  EXPECT_DOUBLE_EQ(tree.budget_scale(120.0), 0.7);
  EXPECT_DOUBLE_EQ(tree.budget_scale(180.0), 0.7 * 0.5);  // overlap
  EXPECT_DOUBLE_EQ(tree.budget_scale(220.0), 0.5);
  EXPECT_DOUBLE_EQ(tree.budget_scale(300.0), 1.0);
}

TEST(DomainTree, PathValidationThrows) {
  DomainTree tree({1, 2, 2}, 1);
  const auto ok = fault_of(DomainFaultKind::kBrownout, 0.0, 10.0);
  EXPECT_THROW(tree.add_fault("rack1", ok), InvalidArgument);
  EXPECT_THROW(tree.add_fault("pdu0", ok), InvalidArgument);
  EXPECT_THROW(tree.add_fault("rack0/pdu2", ok), InvalidArgument);
  EXPECT_THROW(tree.add_fault("rack0/pdu0/rig5", ok), InvalidArgument);
  EXPECT_THROW(
      tree.add_fault("", fault_of(DomainFaultKind::kBrownout, 0.0, 0.0)),
      InvalidArgument);
  EXPECT_THROW(
      tree.add_fault("", fault_of(DomainFaultKind::kBrownout, 0.0, 10.0, 1.5)),
      InvalidArgument);
  EXPECT_THROW((DomainTree{{0, 2, 2}, 1}), InvalidArgument);
}

TEST(DomainTree, RowTopologyPrefixesPathsAndIndexesRowMajor) {
  DomainTree tree({2, 2, 2, 2}, 1);  // 2 rows of 2 racks
  ASSERT_EQ(tree.rig_count(), 16u);
  EXPECT_EQ(tree.rig_path(0), "row0/rack0/pdu0/rig0");
  EXPECT_EQ(tree.rig_path(7), "row0/rack1/pdu1/rig1");
  EXPECT_EQ(tree.rig_path(8), "row1/rack0/pdu0/rig0");
  EXPECT_EQ(tree.rig_path(15), "row1/rack1/pdu1/rig1");
}

TEST(DomainTree, RigsUnderRowNodes) {
  DomainTree tree({2, 2, 2, 2}, 1);
  EXPECT_EQ(tree.rigs_under("").size(), 16u);
  EXPECT_EQ(tree.rigs_under("row1"),
            (std::vector<std::size_t>{8, 9, 10, 11, 12, 13, 14, 15}));
  EXPECT_EQ(tree.rigs_under("row0/rack1"),
            (std::vector<std::size_t>{4, 5, 6, 7}));
  EXPECT_EQ(tree.rigs_under("row1/rack0/pdu1"),
            (std::vector<std::size_t>{10, 11}));
  // With rows > 1 every non-root path must start at the row tier.
  EXPECT_THROW((void)tree.rigs_under("rack0"), InvalidArgument);
  EXPECT_THROW((void)tree.rigs_under("row2"), InvalidArgument);
}

TEST(DomainTree, RowFaultFansOutToThatRowOnly) {
  DomainTree tree({2, 2, 2, 2}, 1);
  tree.add_fault("row1", fault_of(DomainFaultKind::kBrownout, 50.0, 25.0));
  for (std::size_t rig = 0; rig < 8; ++rig) {
    EXPECT_TRUE(tree.rig_plan(rig).meter_dark.empty()) << "rig " << rig;
  }
  for (std::size_t rig = 8; rig < 16; ++rig) {
    const hal::FaultPlan plan = tree.rig_plan(rig);
    ASSERT_EQ(plan.meter_dark.size(), 1u) << "rig " << rig;
    EXPECT_DOUBLE_EQ(plan.meter_dark[0].start.value, 50.0);
  }
}

TEST(DomainTree, NodeScaleCountsOnlyEventsAtThatExactNode) {
  DomainTree tree({2, 2, 2, 2}, 1);
  tree.add_fault("row0",
                 fault_of(DomainFaultKind::kBrownout, 100.0, 50.0, 0.3));
  tree.add_fault("row0/rack1",
                 fault_of(DomainFaultKind::kBudgetSlash, 100.0, 50.0, 0.5));
  EXPECT_DOUBLE_EQ(tree.node_scale("row0", 120.0), 0.7);
  EXPECT_DOUBLE_EQ(tree.node_scale("row0/rack1", 120.0), 0.5);
  EXPECT_DOUBLE_EQ(tree.node_scale("row0/rack0", 120.0), 1.0);
  EXPECT_DOUBLE_EQ(tree.node_scale("", 120.0), 1.0);
  EXPECT_DOUBLE_EQ(tree.node_scale("row0", 200.0), 1.0);  // cleared
  EXPECT_THROW((void)tree.node_scale("rack0", 0.0), InvalidArgument);
}

TEST(DomainTree, SingleRowNodeScaleUsesLegacyPaths) {
  DomainTree tree({2, 2, 2}, 1);
  tree.add_fault("rack1",
                 fault_of(DomainFaultKind::kBrownout, 10.0, 10.0, 0.2));
  tree.add_fault("", fault_of(DomainFaultKind::kBudgetSlash, 10.0, 10.0, 0.4));
  EXPECT_DOUBLE_EQ(tree.node_scale("rack1", 15.0), 0.8);
  EXPECT_DOUBLE_EQ(tree.node_scale("", 15.0), 0.6);
  EXPECT_DOUBLE_EQ(tree.node_scale("rack0", 15.0), 1.0);
}

TEST(DomainTree, RowSplitPreservesPerRigFaultRealizations) {
  // Reshaping 4 racks into 2 rows x 2 racks relabels the domain paths but
  // must not move any rig's seed or fault windows: the plan depends only
  // on (tree seed, global rig index, fault timeline).
  DomainTree flat({4, 2, 2}, 99);
  DomainTree rows({2, 2, 2, 2}, 99);
  flat.add_fault("", fault_of(DomainFaultKind::kBlackout, 30.0, 20.0));
  rows.add_fault("", fault_of(DomainFaultKind::kBlackout, 30.0, 20.0));
  ASSERT_EQ(flat.rig_count(), rows.rig_count());
  for (std::size_t rig = 0; rig < flat.rig_count(); ++rig) {
    const hal::FaultPlan a = flat.rig_plan(rig);
    const hal::FaultPlan b = rows.rig_plan(rig);
    EXPECT_EQ(a.seed, b.seed) << "rig " << rig;
    ASSERT_EQ(a.actuation_blackout.size(), b.actuation_blackout.size());
    EXPECT_DOUBLE_EQ(a.actuation_blackout[0].end.value,
                     b.actuation_blackout[0].end.value);
  }
}

TEST(DomainTree, FaultKindNamesRoundTrip) {
  for (const auto kind :
       {DomainFaultKind::kBrownout, DomainFaultKind::kBudgetSlash,
        DomainFaultKind::kMeterBug, DomainFaultKind::kBlackout}) {
    EXPECT_EQ(fault_kind_from(fault_kind_name(kind)), kind);
  }
  EXPECT_THROW((void)fault_kind_from("emp"), InvalidArgument);
}

TEST(Campaign, ParsesTheDocumentedSchema) {
  const CampaignConfig cfg = parse_campaign(R"({
    "name": "t",
    "seed": 9,
    "topology": {"racks": 1, "pdus_per_rack": 2, "rigs_per_pdu": 2},
    "rack_budget_w": 1800,
    "periods": 10,
    "period_s": 4.0,
    "rebalance_every": 2,
    "slo_s": 0.45,
    "bounds": {"min_w": 250, "max_w": 650},
    "health": {"stale_report_s": 12.0, "dead_after_s": 60.0},
    "stages": [
      {"name": "s0", "node": "rack0/pdu0",
       "fault": {"kind": "brownout", "start_s": 8, "duration_s": 16,
                 "magnitude": 0.3}}
    ]
  })");
  EXPECT_EQ(cfg.name, "t");
  EXPECT_EQ(cfg.seed, 9u);
  EXPECT_EQ(cfg.topology.total_rigs(), 4u);
  EXPECT_DOUBLE_EQ(cfg.slo_s, 0.45);
  EXPECT_DOUBLE_EQ(cfg.bounds.max, 650.0);
  EXPECT_DOUBLE_EQ(cfg.health.dead_after_s, 60.0);
  ASSERT_EQ(cfg.stages.size(), 1u);
  EXPECT_EQ(cfg.stages[0].name, "s0");
  EXPECT_EQ(cfg.stages[0].fault.kind, DomainFaultKind::kBrownout);
  EXPECT_DOUBLE_EQ(cfg.stages[0].fault.end_s(), 24.0);
}

TEST(Campaign, ParseRejectsBadDocuments) {
  // Unknown fault kind.
  EXPECT_THROW((void)parse_campaign(R"({"stages": [{"node": "",
      "fault": {"kind": "gremlins", "start_s": 0, "duration_s": 5}}]})"),
               InvalidArgument);
  // Stage node outside the topology.
  EXPECT_THROW((void)parse_campaign(R"({"stages": [{"node": "rack7",
      "fault": {"kind": "brownout", "start_s": 0, "duration_s": 5}}]})"),
               InvalidArgument);
  // Out-of-domain scalars.
  EXPECT_THROW((void)parse_campaign(R"({"periods": 0})"), InvalidArgument);
  EXPECT_THROW((void)parse_campaign(R"({"offered_load": 1.5})"),
               InvalidArgument);
  EXPECT_THROW((void)parse_campaign(R"({"bounds": {"min_w": 700,
      "max_w": 650}})"),
               InvalidArgument);
  EXPECT_THROW((void)parse_campaign(R"({"health": {"stale_report_s": 50,
      "dead_after_s": 40}})"),
               InvalidArgument);
  EXPECT_THROW((void)parse_campaign("[]"), InvalidArgument);
  // Counts that are negative, fractional or non-finite: a cast would make
  // -1 periods a vector::reserve length_error and 1.9 rigs silently 1.
  for (const char* doc : {R"({"periods": -1})",
                          R"({"topology": {"racks": -1}})",
                          R"({"topology": {"racks": 1, "pdus_per_rack": 2,
                                           "rigs_per_pdu": 1.9}})",
                          R"({"rebalance_every": 1e999})",
                          R"({"seed": -5})",
                          R"({"health": {"reintegrate_rebalances": 0.5}})"}) {
    EXPECT_THROW((void)parse_campaign(doc), InvalidArgument) << doc;
  }
  try {
    (void)parse_campaign(R"({"topology": {"rigs_per_pdu": 1.9}})");
    ADD_FAILURE() << "fractional rigs_per_pdu was accepted";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("'rigs_per_pdu'"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace capgpu::faults
