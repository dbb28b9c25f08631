/**
 * @file
 * The `conventions` pass: eight line-level project rules the C++
 * type system cannot express, checked over every src/ file on the
 * comment/string-stripped lines the corpus already holds (see
 * analyze.hh for the rule catalogue). Every finding is an error;
 * `analyze: allow(<rule>)` on the line or the line above waives one.
 */

#include "analyze.hh"

#include <cctype>
#include <regex>

namespace graphene {
namespace analyze {

namespace {

bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.rfind(prefix, 0) == 0;
}

void
report(const SourceFile &file, std::size_t i, const std::string &rule,
       const std::string &message, std::vector<Finding> &findings)
{
    findings.push_back({file.rel, static_cast<unsigned>(i + 1), rule,
                        message, "error"});
}

/** Flag every unwaived line of @p file that matches @p bad. */
void
flagMatches(const SourceFile &file, const std::regex &bad,
            const std::string &rule, const std::string &message,
            std::vector<Finding> &findings)
{
    for (std::size_t i = 0; i < file.code.size(); ++i)
        if (std::regex_search(file.code[i], bad) &&
            !toolscan::allowMarker(file.raw, i, rule))
            report(file, i, rule, message, findings);
}

/** Lowercase and drop underscores: RowId, row_id, rowid all match. */
std::string
normalize(const std::string &ident)
{
    std::string n;
    for (char c : ident)
        if (c != '_')
            n += static_cast<char>(
                std::tolower(static_cast<unsigned char>(c)));
    return n;
}

/**
 * Identifier heuristic for raw-domain-type: names that denote one of
 * the typed domain quantities. Curated to be precise on this tree:
 * counts-of-things (rowsPerBank, numRows, maxEntries...) are
 * legitimately raw integers and must not fire.
 */
bool
isDomainName(const std::string &ident)
{
    using toolscan::endsWith;
    const std::string n = normalize(ident);
    static const std::set<std::string> exact = {
        "cycle",       "curcycle",   "currentcycle", "startcycle",
        "endcycle",    "row",        "rowid",        "aggressorrow",
        "victimrow",   "openrow",    "hotrow",       "addr",
        "address",     "physaddr",   "bankid",       "actcount",
        "actscount",   "refwindow",  "resetwindow",
    };
    if (exact.count(n))
        return true;
    // Counts, sizes and within-unit indices stay raw: "rows",
    // "...perrow", "numrow...", "lineinrow" (an offset, not a row).
    if (n.find("per") != std::string::npos ||
        n.find("num") != std::string::npos || endsWith(n, "rows") ||
        endsWith(n, "cycles") || endsWith(n, "count") ||
        endsWith(n, "inrow"))
        return false;
    return endsWith(n, "cycle") || endsWith(n, "row") ||
           endsWith(n, "rowid") || endsWith(n, "addr") ||
           endsWith(n, "bankid");
}

void
rawDomainType(const SourceFile &file, std::vector<Finding> &findings)
{
    // types.hh defines the strong types in terms of the raw reps.
    if (file.rel == "src/common/types.hh")
        return;
    static const std::regex decl(
        R"((?:\bstd::)?\buint(?:32|64)_t\b\s*(?:const\s+)?[&*]?\s*)"
        R"(([A-Za-z_]\w*))");
    static const std::regex more(R"(^\s*,\s*([A-Za-z_]\w*))");
    for (std::size_t i = 0; i < file.code.size(); ++i) {
        const std::string &line = file.code[i];
        for (auto it = std::sregex_iterator(line.begin(), line.end(),
                                            decl);
             it != std::sregex_iterator(); ++it) {
            std::vector<std::string> idents = {(*it)[1].str()};
            std::string rest = it->suffix().str();
            std::smatch m;
            while (std::regex_search(rest, m, more)) {
                idents.push_back(m[1].str());
                rest = m.suffix().str();
            }
            for (const auto &ident : idents)
                if (isDomainName(ident) &&
                    !toolscan::allowMarker(file.raw, i,
                                           "raw-domain-type"))
                    report(file, i, "raw-domain-type",
                           "'" + ident +
                               "' holds a domain quantity but is "
                               "declared as a raw integer; use the "
                               "strong type from common/types.hh "
                               "(Cycle, Row, BankId, Addr, ActCount, "
                               "RefWindow)",
                           findings);
        }
    }
}

void
nondeterministicRng(const SourceFile &file,
                    std::vector<Finding> &findings)
{
    // common/random wraps the one sanctioned engine.
    if (startsWith(file.rel, "src/common/random"))
        return;
    static const std::regex bad(
        R"(\bstd::rand\b|\bsrand\s*\(|(?:^|[^:\w])rand\s*\(\s*\)|)"
        R"(\brandom_device\b|\btime\s*\(\s*(?:nullptr|NULL|0)\s*\))");
    flagMatches(file, bad, "nondeterministic-rng",
                "std::rand / std::random_device / time-seeded RNG "
                "breaks reproducibility; use graphene::Rng from "
                "common/random.hh with an explicit seed",
                findings);
}

/** Names declared as `std::unordered_map<...> name` in @p file. */
std::set<std::string>
unorderedMapNames(const SourceFile &file)
{
    std::set<std::string> maps;
    for (const auto &line : file.code) {
        std::size_t pos = line.find("unordered_map");
        while (pos != std::string::npos) {
            std::size_t j = pos + sizeof("unordered_map") - 1;
            while (j < line.size() && std::isspace(
                       static_cast<unsigned char>(line[j])))
                ++j;
            if (j < line.size() && line[j] == '<') {
                int depth = 0;
                for (; j < line.size(); ++j) {
                    if (line[j] == '<')
                        ++depth;
                    else if (line[j] == '>' && --depth == 0) {
                        ++j;
                        break;
                    }
                }
                while (j < line.size() &&
                       (std::isspace(
                            static_cast<unsigned char>(line[j])) ||
                        line[j] == '&'))
                    ++j;
                std::string ident;
                while (j < line.size() &&
                       (std::isalnum(static_cast<unsigned char>(
                            line[j])) ||
                        line[j] == '_'))
                    ident += line[j++];
                if (!ident.empty())
                    maps.insert(ident);
            }
            pos = line.find("unordered_map", pos + 1);
        }
    }
    return maps;
}

void
unorderedMapIteration(const SourceFile &file,
                      std::vector<Finding> &findings)
{
    // Only the tracker/scheme hot paths are order-sensitive.
    if (!startsWith(file.rel, "src/core/") &&
        !startsWith(file.rel, "src/schemes/"))
        return;
    // Ranged-for or begin()/cbegin() iteration over each map; one
    // regex per map name, compiled once per file. The word boundary
    // keeps `old_entries.begin()` from matching a map `entries`.
    std::vector<std::pair<std::string, std::regex>> loops;
    for (const auto &name : unorderedMapNames(file))
        loops.emplace_back(
            name, std::regex(R"(for\s*\([^;)]*:\s*(?:this->)?)" + name +
                             R"(\s*\)|\b)" + name +
                             R"(\.c?begin\(\))"));
    for (std::size_t i = 0; i < file.code.size(); ++i)
        for (const auto &[name, loop] : loops)
            if (std::regex_search(file.code[i], loop) &&
                !toolscan::allowMarker(file.raw, i,
                                       "unordered-map-iteration"))
                report(file, i, "unordered-map-iteration",
                       "iteration over std::unordered_map '" + name +
                           "' in a tracker/scheme hot path can make "
                           "results order-dependent; audit the loop "
                           "and waive it with '// analyze: "
                           "allow(unordered-map-iteration)' or use an "
                           "ordered container",
                       findings);
}

void
floatType(const SourceFile &file, std::vector<Finding> &findings)
{
    static const std::regex bad(R"(\bfloat\b)");
    flagMatches(file, bad, "float-type",
                "'float' is banned: physical quantities are double (or "
                "integral strong types); single precision drifts past "
                "the reproduction tolerances",
                findings);
}

void
contractMacroInclude(const SourceFile &file,
                     std::vector<Finding> &findings)
{
    if (!toolscan::endsWith(file.rel, ".hh") ||
        file.rel == "src/check/contracts.hh")
        return;
    for (const auto &line : file.code)
        if (line.find("#include") != std::string::npos &&
            line.find("check/contracts.hh") != std::string::npos)
            return;
    static const std::regex macro(
        R"(\bGRAPHENE_(?:EXPECTS|ENSURES|INVARIANT|CHECK)\s*\()");
    static const std::regex define(R"(^\s*#\s*define\s+GRAPHENE_)");
    for (std::size_t i = 0; i < file.code.size(); ++i) {
        // A file *defining* the macro family is its own authority.
        if (!std::regex_search(file.code[i], macro) ||
            std::regex_search(file.code[i], define) ||
            toolscan::allowMarker(file.raw, i, "contract-macro-include"))
            continue;
        report(file, i, "contract-macro-include",
               "header uses a GRAPHENE_* contract macro without "
               "including check/contracts.hh itself; transitive "
               "includes break under contracts-off builds",
               findings);
    }
}

void
boundaryFatal(const SourceFile &file, std::vector<Finding> &findings)
{
    // The logging/error/contract machinery implements the calls.
    if (startsWith(file.rel, "src/common/logging") ||
        startsWith(file.rel, "src/common/error") ||
        startsWith(file.rel, "src/check/contracts"))
        return;
    // A call site: fatal( / panic(, optionally graphene:: or
    // ::graphene:: qualified, not a longer identifier (unwrapOrFatal)
    // and not a member access.
    static const std::regex bad(
        R"((?:^|[^:\w.])(?:(?:::)?graphene::\s*)?(?:fatal|panic)\s*\()");
    flagMatches(file, bad, "boundary-fatal",
                "fatal()/panic() in library code: return a typed "
                "Result/Error for bad external input, or use "
                "GRAPHENE_CHECK for internal invariants; process exits "
                "belong only in CLI/bench main() boundaries "
                "(DESIGN.md §9)",
                findings);
}

void
rawThread(const SourceFile &file, std::vector<Finding> &findings)
{
    // The exp:: work-stealing pool is the one sanctioned thread
    // owner: all parallelism must flow through it so every parallel
    // code path inherits the determinism contract (DESIGN.md §10).
    if (startsWith(file.rel, "src/exp/"))
        return;
    static const std::regex bad(R"(\bstd::(?:thread|jthread|async)\b)");
    flagMatches(file, bad, "raw-thread",
                "direct std::thread/jthread/async outside src/exp/: "
                "route parallelism through exp::Pool so results stay "
                "deterministic for every jobs count (DESIGN.md §10)",
                findings);
}

void
directLogging(const SourceFile &file, std::vector<Finding> &findings)
{
    // common/logging is the sanctioned implementation.
    if (startsWith(file.rel, "src/common/logging"))
        return;
    // Word boundaries keep snprintf/strprintf/vsnprintf out; cerr is
    // deliberately allowed (progress lines, warnings).
    static const std::regex bad(
        R"(\bstd::cout\b|\bprintf\s*\(|\bfprintf\s*\(|\bputs\s*\()");
    flagMatches(file, bad, "direct-logging",
                "library code writes to stdout (std::cout / printf "
                "family): report through an obs:: probe or "
                "common/logging and let the CLI/bench boundary own the "
                "output stream",
                findings);
}

} // namespace

void
runConventionsPass(const Corpus &corpus, std::vector<Finding> &findings)
{
    for (const std::size_t fi : corpus.srcFiles) {
        const SourceFile &file = corpus.files[fi];
        rawDomainType(file, findings);
        nondeterministicRng(file, findings);
        unorderedMapIteration(file, findings);
        floatType(file, findings);
        contractMacroInclude(file, findings);
        boundaryFatal(file, findings);
        rawThread(file, findings);
        directLogging(file, findings);
    }
}

} // namespace analyze
} // namespace graphene
