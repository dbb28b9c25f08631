#include "analyze.hh"

#include <fstream>
#include <regex>

namespace graphene {
namespace analyze {

namespace {

/**
 * The audited entry points: the per-event hot-path methods of the
 * ProtectionScheme and AggressorTracker interfaces. These are where
 * an implementation bug silently corrupts a whole sweep, so each
 * definition must carry at least one of the repo's two correctness
 * instruments: a GRAPHENE_* contract (EXPECTS/ENSURES/INVARIANT/
 * CHECK) or an obs:: probe report.
 */
const std::set<std::string> &
entryPointNames()
{
    static const std::set<std::string> names = {
        "onActivate", "onRefresh", "processActivation"};
    return names;
}

std::string
baseName(const std::string &qualified)
{
    const std::size_t colons = qualified.rfind("::");
    return colons == std::string::npos
               ? qualified
               : qualified.substr(colons + 2);
}

} // namespace

void
runCoveragePass(const Corpus &corpus, std::vector<Finding> &findings)
{
    static const std::regex contract(R"(\bGRAPHENE_[A-Z_]+\s*\()");
    static const std::regex probe(
        R"(\b_?probe\s*(?:\.|->)|\bnoteVictimRefresh\s*\(|\bobs\s*::)");

    const std::set<std::string> baseline =
        loadBaselineFile(corpus.baselineFile);
    std::set<std::string> gaps;

    for (const SourceFile &file : corpus.files) {
        if (file.rel.rfind("src/core/", 0) != 0 &&
            file.rel.rfind("src/schemes/", 0) != 0)
            continue;
        for (const ScannedFunction &func : scanFunctions(file.joined)) {
            if (!entryPointNames().count(baseName(func.name)))
                continue;
            const std::string body = file.joined.substr(
                func.bodyBegin, func.bodyEnd - func.bodyBegin);
            if (std::regex_search(body, contract) ||
                std::regex_search(body, probe))
                continue;
            const unsigned line = file.lineOf(func.nameOffset);
            if (toolscan::allowMarker(file.raw, line - 1, "coverage-audit"))
                continue;
            const std::string key = file.rel + ":" + func.name;
            gaps.insert(key);
            const bool known = baseline.count(key) != 0;
            findings.push_back(
                {file.rel, line, "coverage-audit",
                 std::string(known ? "known coverage gap: '"
                                   : "new coverage gap: '") +
                     func.name +
                     "' is a scheme/tracker entry point with "
                     "neither a GRAPHENE_* contract nor an obs:: "
                     "probe report" +
                     (known ? " (baselined in " +
                                  corpus.baselineFile
                                      .generic_string() +
                                  ")"
                            : "; instrument it or add '" + key +
                                  "' to " +
                                  corpus.baselineFile
                                      .generic_string() +
                                  " with a rationale"),
                 known ? "warning" : "error"});
        }
    }

    // Stale baseline entries rot the audit: once an entry point is
    // instrumented (or removed) its waiver must go too, or the
    // baseline quietly stops meaning anything. Burned-down debt must
    // be pruned, so this is an error.
    for (const auto &entry : baseline)
        if (!gaps.count(entry))
            findings.push_back(
                {corpus.baselineFile.generic_string(), 0,
                 "stale-baseline",
                 "stale baseline entry '" + entry +
                     "': no matching coverage gap exists any more; "
                     "delete the line",
                 "error"});
}

} // namespace analyze
} // namespace graphene
