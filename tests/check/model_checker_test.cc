/**
 * @file
 * Tests for the differential model-checker: every built-in tracker
 * passes the full campaign; a deliberately injected off-by-one in a
 * scratch Misra-Gries copy is caught; streams re-materialise
 * bit-exactly and round-trip through the ACT-trace replay format.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "check/model_checker.hh"
#include "core/tracker_counter_table.hh"
#include "workloads/trace_io.hh"

namespace graphene {
namespace check {
namespace {

/** A campaign config small enough for a unit test but still sound:
 *  the checker derives Nentry from W/T per Inequality 1. */
ModelCheckConfig
smallConfig()
{
    ModelCheckConfig c;
    c.tableEntries = 8;
    c.threshold = 32;
    c.numRows = 512;
    c.streamLength = 5000;
    c.resetEvery = 2500;
    c.streamsPerFamily = 1;
    c.auditStride = 331;
    return c;
}

/**
 * A scratch Misra-Gries copy with an injected off-by-one: the
 * estimate handed to the refresh comparator is read *before* the
 * counter write-back, so every reported count lags the stored one by
 * one activation. The stored table stays internally consistent — only
 * the differential checker's policy replay can see the bug.
 */
class OffByOneReportTracker : public core::AggressorTracker
{
  public:
    explicit OffByOneReportTracker(unsigned entries)
        : _inner(entries, core::CounterTable::Policy::MisraGries)
    {
    }

    std::string name() const override { return "mg-off-by-one"; }

    ActCount
    processActivation(Row row) override
    {
        const ActCount after = _inner.processActivation(row);
        // BUG under test: report the pre-update count.
        return after == ActCount{0} ? ActCount{0}
                                    : ActCount{after.value() - 1};
    }

    ActCount
    estimatedCount(Row row) const override
    {
        return _inner.estimatedCount(row);
    }

    void reset() override { _inner.reset(); }

    TableCost
    cost(std::uint64_t rows_per_bank) const override
    {
        return _inner.cost(rows_per_bank);
    }

    double
    overestimateBound(ActCount stream_length) const override
    {
        return _inner.overestimateBound(stream_length);
    }

  private:
    core::CounterTableTracker _inner;
};

TEST(ModelChecker, ProvidesAtLeastTenStreamFamilies)
{
    EXPECT_GE(standardFamilies().size(), 10u);
}

TEST(ModelChecker, AllBuiltInTrackersPassTheCampaign)
{
    ModelChecker checker(smallConfig());
    const ModelCheckReport report = checker.checkAll();
    EXPECT_TRUE(report.ok()) << report.summary();
    EXPECT_EQ(report.streams, standardFamilies().size() * 5u);
    EXPECT_GT(report.activations, 0u);
    EXPECT_GT(report.checks, report.activations);
}

TEST(ModelChecker, CatchesInjectedOffByOne)
{
    const ModelCheckConfig config = smallConfig();
    ModelChecker checker(config);
    const unsigned entries = static_cast<unsigned>(
        config.resetEvery / config.threshold + 1);

    // The same sizing with a correct table passes (see above); only
    // the injected bug separates the two runs.
    const ModelCheckReport report = checker.checkTracker(
        "mg-off-by-one",
        [&] {
            return std::make_unique<OffByOneReportTracker>(entries);
        },
        trackerKindProperties(core::TrackerKind::MisraGries));

    ASSERT_FALSE(report.ok());
    const Violation &v = report.violations.front();
    EXPECT_EQ(v.tracker, "mg-off-by-one");
    EXPECT_FALSE(v.family.empty());
    EXPECT_FALSE(v.property.empty());
    // The summary must carry the seed so the stream can be replayed.
    EXPECT_NE(report.summary().find("seed"), std::string::npos);
}

TEST(ModelChecker, StreamsRematerializeBitExactly)
{
    ModelChecker checker(smallConfig());
    const std::vector<StreamFamily> families = standardFamilies();
    const StreamFamily &family = families.front();
    const std::vector<Row> first =
        checker.materializeStream(family, 123);
    const std::vector<Row> second =
        checker.materializeStream(family, 123);
    EXPECT_EQ(first.size(), checker.config().streamLength);
    EXPECT_EQ(first, second);

    const std::vector<Row> other =
        checker.materializeStream(family, 124);
    EXPECT_NE(first, other);
}

TEST(ModelChecker, MaterializedStreamsRoundTripAsActTraces)
{
    // The replay path: a failing stream is written as an ACT trace
    // and fed back through workloads::TracePattern / sim::replay.
    ModelChecker checker(smallConfig());
    const std::vector<StreamFamily> families = standardFamilies();
    const StreamFamily &family = families.back();
    const std::vector<Row> rows =
        checker.materializeStream(family, 7);

    std::stringstream buffer;
    workloads::writeActTrace(buffer, rows);
    const auto parsed = workloads::readActTrace(buffer);
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), rows);
}

TEST(ModelChecker, KindPropertiesMatchTheoreticalGuarantees)
{
    const TrackerProperties mg =
        trackerKindProperties(core::TrackerKind::MisraGries);
    EXPECT_TRUE(mg.deterministicBound);
    EXPECT_TRUE(mg.monotoneEstimates);

    const TrackerProperties lc =
        trackerKindProperties(core::TrackerKind::LossyCounting);
    EXPECT_TRUE(lc.deterministicBound);
    EXPECT_FALSE(lc.monotoneEstimates);

    const TrackerProperties cm =
        trackerKindProperties(core::TrackerKind::CountMin);
    EXPECT_FALSE(cm.deterministicBound);
    EXPECT_FALSE(cm.monotoneEstimates);
}

} // namespace
} // namespace check
} // namespace graphene
