/**
 * @file
 * graphene_analyze: whole-repo structural static analysis (see
 * analyze.hh for the pass catalogue).
 *
 * Usage:
 *   graphene_analyze [options]         analyze a tree (default: .)
 *   graphene_analyze --self-test DIR   run the known-bad fixtures
 *
 * Options:
 *   --root DIR       repository root to scan (default ".")
 *   --layers FILE    layer config (default ROOT/tools/analyze/
 *                    layers.toml)
 *   --baseline FILE  coverage baseline (default ROOT/tools/analyze/
 *                    coverage_baseline.txt)
 *   --pass NAME      run only the named pass (repeatable)
 *   --json PATH      also write findings in the shared
 *                    machine-readable shape
 *
 * Exit status: 0 clean (warnings allowed), 1 error findings or
 * self-test failure, 2 usage.
 *
 * Self-test layout: every direct subdirectory of DIR is a miniature
 * repository (its own src/, layers.toml, optional
 * coverage_baseline.txt) plus an EXPECT file listing the rule names
 * the tool must report there, one per line (missing or empty EXPECT
 * = the corpus must come back clean). Every error-severity finding's
 * rule must be expected — stray findings fail the fixture too.
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "analyze.hh"

namespace fs = std::filesystem;

using graphene::analyze::allPasses;
using graphene::analyze::buildCorpus;
using graphene::analyze::Corpus;
using graphene::analyze::Finding;
using graphene::analyze::runPasses;

namespace {

std::set<std::string>
readExpect(const fs::path &file)
{
    std::set<std::string> rules;
    std::ifstream in(file);
    if (!in)
        return rules;
    std::string line;
    while (std::getline(in, line)) {
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        const std::size_t first = line.find_first_not_of(" \t\r");
        if (first == std::string::npos)
            continue;
        const std::size_t last = line.find_last_not_of(" \t\r");
        rules.insert(line.substr(first, last - first + 1));
    }
    return rules;
}

int
selfTest(const fs::path &dir)
{
    if (!fs::is_directory(dir)) {
        std::cerr
            << "graphene_analyze: fixture directory not found: "
            << dir << "\n";
        return 2;
    }
    std::vector<fs::path> fixtures;
    for (const auto &e : fs::directory_iterator(dir))
        if (e.is_directory())
            fixtures.push_back(e.path());
    std::sort(fixtures.begin(), fixtures.end());
    if (fixtures.empty()) {
        std::cerr << "SELF-TEST FAIL: no fixture directories in "
                  << dir << "\n";
        return 1;
    }

    unsigned failures = 0;
    for (const auto &fixture : fixtures) {
        const std::set<std::string> expected =
            readExpect(fixture / "EXPECT");
        const Corpus corpus =
            buildCorpus(fixture, fixture / "layers.toml",
                        fixture / "coverage_baseline.txt");
        const std::vector<Finding> findings =
            runPasses(corpus, {});

        std::set<std::string> got_errors, got_all;
        for (const auto &f : findings) {
            got_all.insert(f.rule);
            if (f.severity != "warning")
                got_errors.insert(f.rule);
        }

        std::vector<std::string> problems;
        for (const auto &rule : expected)
            if (!got_all.count(rule))
                problems.push_back("expected a '" + rule +
                                   "' finding, got none");
        for (const auto &rule : got_errors)
            if (!expected.count(rule))
                problems.push_back("unexpected '" + rule +
                                   "' error");

        if (problems.empty()) {
            std::cout << "SELF-TEST OK   "
                      << fixture.filename().string() << " ("
                      << (expected.empty()
                              ? std::string("clean")
                              : std::to_string(expected.size()) +
                                    " expected rule(s)")
                      << ")\n";
        } else {
            ++failures;
            std::cout << "SELF-TEST FAIL "
                      << fixture.filename().string() << ":\n";
            for (const auto &p : problems)
                std::cout << "  " << p << "\n";
            for (const auto &f : findings)
                std::cout << "  got: "
                          << graphene::toolscan::formatFinding(f)
                          << "\n";
        }
    }
    std::cout << fixtures.size() << " fixture(s), " << failures
              << " failure(s)\n";
    return failures == 0 ? 0 : 1;
}

int
usageError(const std::string &message)
{
    std::cerr << "graphene_analyze: " << message << "\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    if (!args.empty() && args[0] == "--self-test") {
        const fs::path dir = args.size() > 1
                                 ? fs::path(args[1])
                                 : fs::path(
                                       "tools/analyze/fixtures");
        return selfTest(dir);
    }

    fs::path root = ".";
    fs::path layers, baseline;
    std::set<std::string> passes;
    std::string json_path;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &a = args[i];
        const auto value = [&](const char *what) -> std::string {
            if (i + 1 >= args.size()) {
                std::cerr << "graphene_analyze: " << a
                          << " needs a " << what << "\n";
                std::exit(2);
            }
            return args[++i];
        };
        if (a == "--help" || a == "-h") {
            std::cout
                << "usage: graphene_analyze [--root DIR] "
                   "[--layers FILE] [--baseline FILE]\n"
                   "                        [--pass NAME]... "
                   "[--json PATH]\n"
                   "       graphene_analyze --self-test "
                   "[fixture-dir]\n"
                   "passes:";
            for (const auto &p : allPasses())
                std::cout << " " << p;
            std::cout << "\n";
            return 0;
        } else if (a == "--root") {
            root = value("directory");
        } else if (a == "--layers") {
            layers = value("file");
        } else if (a == "--baseline") {
            baseline = value("file");
        } else if (a == "--pass") {
            const std::string pass = value("pass name");
            const auto &all = allPasses();
            if (std::find(all.begin(), all.end(), pass) ==
                all.end())
                return usageError("unknown pass '" + pass + "'");
            passes.insert(pass);
        } else if (a == "--json") {
            json_path = value("path");
        } else {
            return usageError("unknown option " + a);
        }
    }
    if (!fs::is_directory(root))
        return usageError("root is not a directory: " +
                          root.generic_string());
    if (layers.empty())
        layers = root / "tools/analyze/layers.toml";
    if (baseline.empty())
        baseline = root / "tools/analyze/coverage_baseline.txt";

    const Corpus corpus = buildCorpus(root, layers, baseline);
    const std::vector<Finding> findings = runPasses(corpus, passes);

    for (const auto &f : findings)
        std::cout << graphene::toolscan::formatFinding(f) << "\n";
    if (!json_path.empty()) {
        std::ofstream os(json_path, std::ios::trunc);
        if (!os)
            return usageError("cannot write " + json_path);
        graphene::toolscan::writeFindingsJson(os,
                                              "graphene_analyze",
                                              findings);
    }

    const std::size_t errors =
        graphene::toolscan::errorCount(findings);
    const std::size_t warnings = findings.size() - errors;
    std::cout << "graphene_analyze: " << corpus.files.size()
              << " file(s), " << errors << " error(s), " << warnings
              << " warning(s)\n";
    return errors == 0 ? 0 : 1;
}
