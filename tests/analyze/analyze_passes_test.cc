/**
 * @file
 * In-process drive of the graphene_analyze passes over the known-bad
 * fixture corpora (one per rule) plus the clean-tree acceptance
 * check: the real repository must analyze with zero errors. These
 * are the tests that prove CI *would* fail on an introduced layer
 * back-edge, include cycle, unhashed fingerprint field, discarded
 * Result, uncovered entry point, or broken line-level convention.
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analyze.hh"

namespace {

namespace fs = std::filesystem;
using namespace graphene::analyze;
using graphene::toolscan::Finding;

fs::path
fixtureRoot(const std::string &name)
{
    return fs::path(GRAPHENE_ANALYZE_FIXTURES) / name;
}

/** Build a fixture corpus with its own local config files. */
Corpus
fixtureCorpus(const std::string &name)
{
    const fs::path root = fixtureRoot(name);
    return buildCorpus(root, root / "layers.toml",
                       root / "coverage_baseline.txt");
}

std::vector<Finding>
analyzeFixture(const std::string &name)
{
    return runPasses(fixtureCorpus(name), {});
}

bool
hasRule(const std::vector<Finding> &findings, const std::string &rule)
{
    return std::any_of(findings.begin(), findings.end(),
                       [&](const Finding &f) { return f.rule == rule; });
}

TEST(AnalyzePasses, LayerBackEdgeIsAnError)
{
    const auto findings = analyzeFixture("layer_backedge");
    ASSERT_TRUE(hasRule(findings, "layer-dag"));
    const auto it = std::find_if(
        findings.begin(), findings.end(),
        [](const Finding &f) { return f.rule == "layer-dag"; });
    EXPECT_EQ(it->severity, "error");
    // The message must name both layers so the fix is obvious.
    EXPECT_NE(it->message.find("common"), std::string::npos);
    EXPECT_NE(it->message.find("sim"), std::string::npos);
}

TEST(AnalyzePasses, IncludeCycleIsAnError)
{
    const auto findings = analyzeFixture("include_cycle");
    ASSERT_TRUE(hasRule(findings, "include-cycle"));
    const auto it = std::find_if(
        findings.begin(), findings.end(),
        [](const Finding &f) { return f.rule == "include-cycle"; });
    EXPECT_EQ(it->severity, "error");
    // The full cycle path is spelled out.
    EXPECT_NE(it->message.find("a.hh"), std::string::npos);
    EXPECT_NE(it->message.find("b.hh"), std::string::npos);
}

TEST(AnalyzePasses, UnhashedFingerprintFieldIsAnError)
{
    const auto findings = analyzeFixture("fp_missing");
    ASSERT_TRUE(hasRule(findings, "fingerprint-completeness"));
    const auto it = std::find_if(findings.begin(), findings.end(),
                                 [](const Finding &f) {
                                     return f.rule ==
                                            "fingerprint-completeness";
                                 });
    EXPECT_EQ(it->severity, "error");
    // The forgotten field (and only that field) is named.
    EXPECT_NE(it->message.find("blastRadius"), std::string::npos);
    EXPECT_EQ(std::count_if(findings.begin(), findings.end(),
                            [](const Finding &f) {
                                return f.rule ==
                                       "fingerprint-completeness";
                            }),
              1);
}

TEST(AnalyzePasses, DiscardedResultsAreErrors)
{
    const auto findings = analyzeFixture("result_discard");
    // Three discard shapes: bare statement, (void) cast, and
    // unwrapOrFatal outside a CLI/bench boundary.
    EXPECT_EQ(std::count_if(
                  findings.begin(), findings.end(),
                  [](const Finding &f) {
                      return f.rule == "result-discard" &&
                             f.severity == "error";
                  }),
              3);
}

TEST(AnalyzePasses, UncoveredEntryPointIsAnError)
{
    const auto findings = analyzeFixture("coverage_gap");
    ASSERT_TRUE(hasRule(findings, "coverage-audit"));
    const auto it = std::find_if(
        findings.begin(), findings.end(),
        [](const Finding &f) { return f.rule == "coverage-audit"; });
    // No baseline file in this fixture: the gap is new, hence fatal.
    EXPECT_EQ(it->severity, "error");
    EXPECT_NE(it->message.find("onActivate"), std::string::npos);
}

TEST(AnalyzePasses, CleanFixtureHasNoFindings)
{
    // Waivered field + contracted entry point: all passes quiet.
    EXPECT_TRUE(analyzeFixture("clean").empty());
}

/** The conventions rule each known-bad fixture is named after. */
const std::vector<std::string> kConventionRules = {
    "raw-domain-type",        "nondeterministic-rng",
    "unordered-map-iteration", "float-type",
    "contract-macro-include", "boundary-fatal",
    "raw-thread",             "direct-logging"};

/** The fixture directory of @p rule: dashes become underscores. */
std::string
conventionFixture(std::string rule)
{
    std::replace(rule.begin(), rule.end(), '-', '_');
    return rule;
}

std::vector<Finding>
conventionFindings(const std::string &fixture)
{
    return runPasses(fixtureCorpus(fixture), {"conventions"});
}

TEST(ConventionsPass, EachRuleFlagsExactlyItsKnownBadLines)
{
    // Every finding of each fixture, as (file, line): all of the
    // fixture's own rule, all errors, nothing else.
    using Site = std::pair<std::string, unsigned>;
    const std::map<std::string, std::vector<Site>> expected = {
        // Parameter, locals, members, and both declarators of a
        // comma list; counts and sizes stay quiet.
        {"raw-domain-type",
         {{"src/core/state.cc", 7},
          {"src/core/state.cc", 9},
          {"src/core/state.cc", 10},
          {"src/core/state.cc", 16},
          {"src/core/state.cc", 17},
          {"src/core/state.cc", 18},
          {"src/core/state.cc", 19},
          {"src/core/state.cc", 19}}},
        // srand(time(nullptr)), random_device, std::rand().
        {"nondeterministic-rng",
         {{"src/sim/roll.cc", 11},
          {"src/sim/roll.cc", 12},
          {"src/sim/roll.cc", 14}}},
        // A ranged-for, then begin()/cbegin() on one line.
        {"unordered-map-iteration",
         {{"src/core/tracker.cc", 15}, {"src/core/tracker.cc", 23}}},
        {"float-type",
         {{"src/core/energy.cc", 5}, {"src/core/energy.cc", 6}}},
        {"contract-macro-include", {{"src/core/half.hh", 12}}},
        // fatal(, graphene::fatal(, ::graphene::fatal(,
        // graphene::panic(, panic(; member and other-namespace
        // calls stay quiet.
        {"boundary-fatal",
         {{"src/sim/parse.cc", 15},
          {"src/sim/parse.cc", 17},
          {"src/sim/parse.cc", 19},
          {"src/sim/parse.cc", 23},
          {"src/sim/parse.cc", 25}}},
        {"raw-thread",
         {{"src/sim/spawn.cc", 10}, {"src/sim/spawn.cc", 11}}},
        // std::cout, printf, fprintf; cerr and snprintf stay quiet.
        {"direct-logging",
         {{"src/sim/report.cc", 11},
          {"src/sim/report.cc", 13},
          {"src/sim/report.cc", 15}}},
    };
    ASSERT_EQ(expected.size(), kConventionRules.size());
    for (const std::string &rule : kConventionRules) {
        SCOPED_TRACE(rule);
        std::vector<Site> got;
        for (const Finding &f :
             conventionFindings(conventionFixture(rule))) {
            EXPECT_EQ(f.rule, rule) << f.file << ":" << f.line;
            EXPECT_EQ(f.severity, "error");
            got.emplace_back(f.file, f.line);
        }
        EXPECT_EQ(got, expected.at(rule));
    }
}

TEST(ConventionsPass, WaivedLinesStaySilent)
{
    // Every known-bad fixture carries at least one waiver. A marker
    // on a code line covers that line; a marker on a comment-only
    // line covers the line below it.
    for (const std::string &rule : kConventionRules) {
        SCOPED_TRACE(rule);
        const Corpus corpus = fixtureCorpus(conventionFixture(rule));
        std::set<std::pair<std::string, unsigned>> waived;
        for (const SourceFile &file : corpus.files)
            for (std::size_t i = 0; i < file.raw.size(); ++i) {
                if (file.raw[i].find("analyze: allow(" + rule + ")") ==
                    std::string::npos)
                    continue;
                const bool comment_only =
                    file.code[i].find_first_not_of(" \t") ==
                    std::string::npos;
                waived.emplace(file.rel,
                               static_cast<unsigned>(
                                   comment_only ? i + 2 : i + 1));
            }
        EXPECT_FALSE(waived.empty());
        std::vector<Finding> findings;
        runConventionsPass(corpus, findings);
        for (const Finding &f : findings)
            EXPECT_FALSE(waived.count({f.file, f.line}))
                << f.file << ":" << f.line << " is waived";
    }
}

TEST(ConventionsPass, CleanFixtureHasNoFindings)
{
    // Every rule in scope, nothing to report, including
    // `old_entries.begin()` next to an unordered_map named `entries`.
    EXPECT_TRUE(analyzeFixture("conventions_clean").empty());
}

TEST(CkptPass, ForgottenMembersAndOneSidedPairsAreErrors)
{
    const auto findings = analyzeFixture("ckpt_missing");
    std::vector<Finding> ckpt;
    std::copy_if(findings.begin(), findings.end(),
                 std::back_inserter(ckpt), [](const Finding &f) {
                     return f.rule == "ckpt-completeness";
                 });
    // _spills (restore side), _epoch (both sides), and the
    // one-sided WriteOnly pair; _acts is covered and silent.
    ASSERT_EQ(ckpt.size(), 3u);
    const auto messageWith = [&](const std::string &needle) {
        return std::any_of(ckpt.begin(), ckpt.end(),
                           [&](const Finding &f) {
                               return f.severity == "error" &&
                                      f.message.find(needle) !=
                                          std::string::npos;
                           });
    };
    EXPECT_TRUE(messageWith("'_spills'"));
    EXPECT_TRUE(messageWith("'_epoch'"));
    EXPECT_TRUE(messageWith("no matching restoreState"));
    EXPECT_FALSE(messageWith("'_acts'"));
}

TEST(CkptPass, WaiversAndDelegationStaySilent)
{
    // Serialized members, saveState-recursion delegation, and all
    // three waiver placements (same line, line above, in-function):
    // the corpus must come back clean.
    EXPECT_TRUE(analyzeFixture("ckpt_waived").empty());
}

TEST(CkptPass, RealTreeCheckpointPairsAreComplete)
{
    // The shipped checkpoint protocol (DESIGN.md §14): every
    // saveState/restoreState pair in src/ round-trips every member
    // or waives it with a rationale.
    const fs::path root = GRAPHENE_REPO_ROOT;
    const Corpus corpus =
        buildCorpus(root, root / "tools/analyze/layers.toml",
                    root / "tools/analyze/coverage_baseline.txt");
    std::vector<Finding> findings;
    runCkptPass(corpus, findings);
    for (const Finding &f : findings)
        ADD_FAILURE() << f.file << ":" << f.line << ": "
                      << f.message;
    // The pass must actually be auditing the tree, not silently
    // matching nothing: the engine's checkpoint pair is the anchor.
    EXPECT_TRUE(corpus.byRel.count("src/sim/act_engine.cc"));
}

TEST(AnalyzePasses, RealTreeAnalyzesWithoutErrors)
{
    const fs::path root(GRAPHENE_REPO_ROOT);
    const Corpus corpus = buildCorpus(
        root, root / "tools/analyze/layers.toml",
        root / "tools/analyze/coverage_baseline.txt");
    ASSERT_GT(corpus.files.size(), 100u); // the whole tree, not a stub
    const auto findings = runPasses(corpus, {});
    for (const auto &f : findings)
        EXPECT_NE(f.severity, "error")
            << f.file << ":" << f.line << " [" << f.rule << "] "
            << f.message;
    EXPECT_EQ(graphene::toolscan::errorCount(findings), 0u);
}

TEST(AnalyzePasses, LayersConfigRejectsUndeclaredDep)
{
    // Referential integrity of the config itself: a dep naming a
    // layer that is never declared must be a parse error, or typos
    // would silently disable edges.
    const auto dir = fs::path(::testing::TempDir()) / "bad_layers";
    fs::create_directories(dir);
    const auto file = dir / "layers.toml";
    {
        std::ofstream out(file);
        out << "[layer.common]\n"
            << "paths = [\"src/common/\"]\n"
            << "deps = [\"does_not_exist\"]\n";
    }
    LayerConfig config;
    std::string error;
    EXPECT_FALSE(parseLayersFile(file, config, error));
    EXPECT_NE(error.find("does_not_exist"), std::string::npos);
}

} // namespace
