/**
 * @file
 * perf-debt pass: call-graph-aware performance audit of the hot
 * region (see analyze.hh for the rule catalogue and DESIGN.md §13
 * for the workflow).
 *
 * The hot region is computed, not hand-annotated: roots declared in
 * hotpaths.toml (scheme onActivate/onRefresh, tracker update paths,
 * the bank state machine, the sim tick loop) are closed transitively
 * over the scanner's name-resolved call edges. Name resolution
 * over-approximates — a call to `f` reaches every definition named
 * `f` — which is the safe direction for a perf audit: a function
 * wrongly considered hot costs one baseline line, a hot function
 * wrongly considered cold hides real debt.
 *
 * Findings are keyed `file:function:rule` against the committed
 * perf_baseline.txt burn-down list: known sites report as warnings,
 * new sites as errors, and baseline entries matching no current
 * finding as stale-baseline errors so burned-down debt gets pruned.
 */

#include "analyze.hh"

#include <cctype>
#include <fstream>
#include <regex>

namespace graphene {
namespace analyze {

namespace fs = std::filesystem;

using toolscan::CallSite;
using toolscan::ScannedFunction;
using toolscan::unqualifiedName;

namespace {

/** Parse a TOML-style string array: ["a", "b"] (one line). */
bool
parseStringArray(const std::string &text,
                 std::vector<std::string> &out)
{
    static const std::regex item(R"re("([^"]*)")re");
    const std::size_t open = text.find('[');
    const std::size_t close = text.rfind(']');
    if (open == std::string::npos || close == std::string::npos ||
        close < open)
        return false;
    const std::string body = text.substr(open + 1, close - open - 1);
    auto begin = std::sregex_iterator(body.begin(), body.end(), item);
    for (auto it = begin; it != std::sregex_iterator(); ++it)
        out.push_back((*it)[1].str());
    return true;
}

} // namespace

bool
parseHotpathsFile(const fs::path &file, HotConfig &config,
                  std::string &error)
{
    std::ifstream in(file);
    if (!in) {
        error = "cannot open " + file.generic_string();
        return false;
    }
    static const std::regex section(R"(^\s*\[hotpaths\]\s*$)");
    static const std::regex keyval(
        R"(^\s*(roots|files)\s*=\s*(.*)$)");

    std::string line;
    unsigned lineno = 0;
    bool in_section = false;
    while (std::getline(in, line)) {
        ++lineno;
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue;
        if (std::regex_match(line, section)) {
            in_section = true;
            continue;
        }
        std::smatch m;
        if (std::regex_match(line, m, keyval)) {
            if (!in_section) {
                error = "line " + std::to_string(lineno) +
                        ": key outside the [hotpaths] section";
                return false;
            }
            auto &dest =
                m[1].str() == "roots" ? config.roots : config.files;
            if (!parseStringArray(m[2].str(), dest)) {
                error = "line " + std::to_string(lineno) +
                        ": expected a [\"...\"] array";
                return false;
            }
            continue;
        }
        error = "line " + std::to_string(lineno) +
                ": unrecognised syntax: " + line;
        return false;
    }
    if (config.roots.empty() && config.files.empty()) {
        error = "no roots or files declared in " +
                file.generic_string();
        return false;
    }
    return true;
}

namespace {

/** All function definitions of one src/ file. */
struct FileFunctions
{
    std::size_t fileIndex;
    std::vector<ScannedFunction> defs;
};

/** Does @p entry (from `roots = [...]`) name this definition? */
bool
rootMatches(const std::string &entry, const std::string &qualified)
{
    if (entry == qualified)
        return true;
    if (unqualifiedName(qualified) == entry)
        return true;
    return toolscan::endsWith(qualified, "::" + entry);
}

} // namespace

std::vector<HotFunction>
computeHotRegion(const Corpus &corpus, const HotConfig &config)
{
    // Every function definition in src/, plus an index by
    // unqualified name for call-edge resolution.
    std::vector<FileFunctions> all;
    std::map<std::string, std::vector<std::pair<std::size_t,
                                                std::size_t>>>
        by_base; // base name -> (all index, def index)
    for (const std::size_t fi : corpus.srcFiles) {
        FileFunctions ff;
        ff.fileIndex = fi;
        ff.defs = toolscan::scanFunctions(corpus.files[fi].joined);
        const std::size_t ai = all.size();
        for (std::size_t di = 0; di < ff.defs.size(); ++di)
            by_base[unqualifiedName(ff.defs[di].name)].push_back(
                {ai, di});
        all.push_back(std::move(ff));
    }

    // Seed the worklist with the declared roots.
    std::map<std::pair<std::size_t, std::size_t>, std::string> hot;
    std::vector<std::pair<std::size_t, std::size_t>> work;
    const auto seed = [&](std::size_t ai, std::size_t di,
                          const std::string &root) {
        const auto key = std::make_pair(ai, di);
        if (hot.count(key))
            return;
        hot[key] = root;
        work.push_back(key);
    };
    for (std::size_t ai = 0; ai < all.size(); ++ai) {
        const std::string &rel =
            corpus.files[all[ai].fileIndex].rel;
        bool file_is_root = false;
        for (const auto &prefix : config.files)
            if (rel.rfind(prefix, 0) == 0)
                file_is_root = true;
        for (std::size_t di = 0; di < all[ai].defs.size(); ++di) {
            if (file_is_root) {
                seed(ai, di, rel);
                continue;
            }
            for (const auto &entry : config.roots)
                if (rootMatches(entry, all[ai].defs[di].name))
                    seed(ai, di, entry);
        }
    }

    // Transitive closure over name-resolved call edges.
    while (!work.empty()) {
        const auto [ai, di] = work.back();
        work.pop_back();
        const std::string root = hot.at({ai, di});
        const SourceFile &file = corpus.files[all[ai].fileIndex];
        const ScannedFunction &def = all[ai].defs[di];
        for (const CallSite &call : toolscan::scanCalls(
                 file.joined, def.bodyBegin, def.bodyEnd)) {
            const auto it =
                by_base.find(unqualifiedName(call.name));
            if (it == by_base.end())
                continue;
            for (const auto &[cai, cdi] : it->second)
                seed(cai, cdi, root);
        }
    }

    std::vector<HotFunction> region;
    for (const auto &[key, root] : hot) {
        HotFunction hf;
        hf.fileIndex = all[key.first].fileIndex;
        hf.def = all[key.first].defs[key.second];
        hf.root = root;
        region.push_back(std::move(hf));
    }
    return region;
}

namespace {

/** A hash/tree container variable declared somewhere in src/. */
struct ContainerVar
{
    std::string kind; ///< "unordered_map", "map", ...
    std::string file; ///< declaring file (root-relative)
    unsigned line = 0;
};

/** Offset just past the '>' closing the '<' at @p open. */
std::size_t
matchAngle(const std::string &text, std::size_t open)
{
    int depth = 0;
    for (std::size_t i = open; i < text.size(); ++i) {
        if (text[i] == '<')
            ++depth;
        else if (text[i] == '>' && --depth == 0)
            return i + 1;
        else if (text[i] == ';' || text[i] == '{')
            break; // not a template argument list after all
    }
    return std::string::npos;
}

/** "src/core/counter_table.cc" -> "src/core/counter_table." */
std::string
fileStem(const std::string &rel)
{
    const std::size_t dot = rel.rfind('.');
    return dot == std::string::npos ? rel : rel.substr(0, dot + 1);
}

/**
 * Every `std::unordered_map<...> name;`-shaped declaration in src/
 * (members and locals alike), keyed by variable name. A use only
 * resolves against declarations from the same header/impl file pair
 * (same path stem), so `_entries` the vector in one class never
 * matches `_entries` the unordered_map in another.
 */
std::map<std::string, std::vector<ContainerVar>>
findContainerVars(const Corpus &corpus)
{
    static const std::regex decl(
        R"(\bstd\s*::\s*(unordered_map|unordered_set|map|set|multimap|multiset)\s*(<))");
    static const std::regex name_after(
        R"(^\s*[&*]?\s*([A-Za-z_]\w*)\s*[;={])");

    std::map<std::string, std::vector<ContainerVar>> vars;
    for (const std::size_t fi : corpus.srcFiles) {
        const SourceFile &file = corpus.files[fi];
        const std::string &text = file.joined;
        auto begin =
            std::sregex_iterator(text.begin(), text.end(), decl);
        for (auto it = begin; it != std::sregex_iterator(); ++it) {
            const std::size_t open =
                static_cast<std::size_t>(it->position(2));
            const std::size_t after = matchAngle(text, open);
            if (after == std::string::npos)
                continue;
            std::smatch m;
            const std::string tail =
                text.substr(after,
                            std::min<std::size_t>(
                                120, text.size() - after));
            if (!std::regex_search(tail, m, name_after))
                continue;
            const std::string name = m[1].str();
            auto &decls = vars[name];
            const std::string stem = fileStem(file.rel);
            bool dup = false;
            for (const auto &d : decls)
                if (fileStem(d.file) == stem)
                    dup = true;
            if (dup)
                continue;
            decls.push_back({(*it)[1].str(), file.rel,
                             file.lineOf(static_cast<std::size_t>(
                                 it->position(0)))});
        }
    }
    return vars;
}

/** Unqualified names of every `virtual`-declared method in src/. */
std::set<std::string>
findVirtualMethodNames(const Corpus &corpus)
{
    static const std::regex decl(
        R"(\bvirtual\b[^;{}=()]*?([A-Za-z_]\w*)\s*\()");
    std::set<std::string> names;
    for (const std::size_t fi : corpus.srcFiles) {
        const std::string &text = corpus.files[fi].joined;
        auto begin =
            std::sregex_iterator(text.begin(), text.end(), decl);
        for (auto it = begin; it != std::sregex_iterator(); ++it)
            names.insert((*it)[1].str());
    }
    return names;
}

/** Rough sizeof estimate for a declared field type. */
std::size_t
estimateTypeSize(const std::string &type)
{
    const auto has = [&](const char *needle) {
        return type.find(needle) != std::string::npos;
    };
    if (has("unordered_map") || has("unordered_set"))
        return 56;
    if (has("map<") || has("set<"))
        return 48;
    if (has("vector<") || has("deque<") || has("function<"))
        return 24;
    if (has("string"))
        return 32;
    if (has("shared_ptr"))
        return 16;
    if (has("unique_ptr") || has("*"))
        return 8;
    if (has("double") || has("int64") || has("uint64") ||
        has("size_t") || has("Cycle") || has("ActCount") ||
        has("long"))
        return 8;
    if (has("bool") || has("char") || has("int8") || has("uint8"))
        return 1;
    if (has("short") || has("int16") || has("uint16"))
        return 2;
    return 4; // int/unsigned/float/Row/enum-sized default
}

/** Estimated byte size of a registered struct (field sum). */
std::size_t
estimateStructSize(const StructDef &def)
{
    std::size_t total = 0;
    for (const auto &field : def.fields)
        total += estimateTypeSize(field.type);
    return total;
}

/** Split a parameter list on top-level commas. */
std::vector<std::string>
splitParams(const std::string &params)
{
    std::vector<std::string> out;
    int angle = 0, paren = 0;
    std::string current;
    for (const char c : params) {
        if (c == '<')
            ++angle;
        else if (c == '>')
            --angle;
        else if (c == '(')
            ++paren;
        else if (c == ')')
            --paren;
        if (c == ',' && angle == 0 && paren == 0) {
            out.push_back(current);
            current.clear();
        } else {
            current += c;
        }
    }
    if (current.find_first_not_of(" \t\n") != std::string::npos)
        out.push_back(current);
    return out;
}

/** By-value perf findings context shared across the rules. */
struct PerfContext
{
    std::map<std::string, std::vector<ContainerVar>> containers;
    std::set<std::string> virtuals;
    std::map<std::string, StructDef> structs;
    std::set<std::string> baseline;
    std::set<std::string> matchedBaseline;

    /// Struct size above which a by-value parameter is a finding.
    static constexpr std::size_t kCopyThresholdBytes = 16;
};

/** True when an inline waiver covers @p line (0-based index). */
bool
perfWaived(const SourceFile &file, unsigned line_index,
           const std::string &rule)
{
    return toolscan::suppressed(file.raw, line_index,
                                "analyze: perf-exempt(") ||
           toolscan::allowMarker(file.raw, line_index, rule);
}

/** Emit one perf finding with baseline/waiver handling. */
void
emitPerf(const Corpus &corpus, const SourceFile &file,
         const HotFunction &hot, const std::string &rule,
         unsigned line, const std::string &what, PerfContext &ctx,
         std::vector<Finding> &findings,
         std::set<std::pair<std::string, unsigned>> &seen)
{
    if (!seen.insert({rule, line}).second)
        return;
    // A waiver on the finding line covers that site; one on or just
    // above the function's signature (including above a
    // return-type-on-its-own-line header) covers the whole function.
    const unsigned sig = file.lineOf(hot.def.nameOffset) - 1;
    if (perfWaived(file, line - 1, rule) ||
        perfWaived(file, sig, rule) ||
        (sig > 0 && perfWaived(file, sig - 1, rule)))
        return;
    const std::string key =
        file.rel + ":" + hot.def.name + ":" + rule;
    const bool known = ctx.baseline.count(key) != 0;
    if (known)
        ctx.matchedBaseline.insert(key);
    findings.push_back(
        {file.rel, line, rule,
         what + " in hot function '" + hot.def.name +
             "' (hot via '" + hot.root + "')" +
             (known
                  ? "; baselined in " +
                        corpus.perfBaselineFile.generic_string()
                  : "; fix it, waive it with 'analyze: "
                    "perf-exempt(reason)', or add '" +
                        key + "' to " +
                        corpus.perfBaselineFile.generic_string()),
         known ? "warning" : "error"});
}

void
checkAllocRule(const Corpus &corpus, const SourceFile &file,
               const HotFunction &hot, const std::string &body,
               PerfContext &ctx, std::vector<Finding> &findings,
               std::set<std::pair<std::string, unsigned>> &seen)
{
    struct Pattern
    {
        const char *regex;
        const char *what;
        bool needs_no_reserve;
    };
    static const Pattern patterns[] = {
        {R"(\bnew\b)", "heap allocation ('new')", false},
        {R"(\bstd\s*::\s*make_(?:unique|shared)\b)",
         "heap allocation (make_unique/make_shared)", false},
        {R"(\.\s*(?:push_back|emplace_back)\s*\()",
         "container growth without a reserve() in the same "
         "function",
         true},
        {R"(\.\s*resize\s*\()",
         "resize() without a reserve() in the same function", true},
        {R"(\bstd\s*::\s*to_string\s*\()",
         "std::string temporary (std::to_string)", false},
        {R"(\bstd\s*::\s*string\b)",
         "std::string construction", false},
        {R"(\bstd\s*::\s*[io]?stringstream\b)",
         "stringstream construction", false},
    };
    const bool has_reserve =
        body.find(".reserve(") != std::string::npos ||
        body.find(". reserve(") != std::string::npos;
    for (const Pattern &p : patterns) {
        if (p.needs_no_reserve && has_reserve)
            continue;
        const std::regex re(p.regex);
        auto begin =
            std::sregex_iterator(body.begin(), body.end(), re);
        for (auto it = begin; it != std::sregex_iterator(); ++it)
            emitPerf(corpus, file, hot, "perf-alloc",
                     file.lineOf(hot.def.bodyBegin +
                                 static_cast<std::size_t>(
                                     it->position(0))),
                     p.what, ctx, findings, seen);
    }
}

void
checkContainerRule(const Corpus &corpus, const SourceFile &file,
                   const HotFunction &hot, const std::string &body,
                   PerfContext &ctx,
                   std::vector<Finding> &findings,
                   std::set<std::pair<std::string, unsigned>> &seen)
{
    const std::string use_stem = fileStem(file.rel);
    for (const auto &[name, decls] : ctx.containers) {
        // Resolve the name against its own header/impl pair only:
        // `_entries` the vector in one class must not inherit a
        // hash-container verdict from `_entries` elsewhere.
        const ContainerVar *var = nullptr;
        for (const auto &d : decls)
            if (fileStem(d.file) == use_stem)
                var = &d;
        if (!var)
            continue;
        std::size_t pos = 0;
        while ((pos = body.find(name, pos)) != std::string::npos) {
            const std::size_t after = pos + name.size();
            const bool word_start =
                pos == 0 ||
                (!std::isalnum(static_cast<unsigned char>(
                     body[pos - 1])) &&
                 body[pos - 1] != '_');
            // A *touch* is member/element access, not a mere
            // mention (pass-through references stay silent).
            std::size_t k = after;
            while (k < body.size() &&
                   std::isspace(
                       static_cast<unsigned char>(body[k])))
                ++k;
            const bool touch =
                k < body.size() &&
                (body[k] == '.' || body[k] == '[' ||
                 (body[k] == '-' && k + 1 < body.size() &&
                  body[k + 1] == '>'));
            if (word_start && touch &&
                (after >= body.size() ||
                 (!std::isalnum(static_cast<unsigned char>(
                      body[after])) &&
                  body[after] != '_')))
                emitPerf(corpus, file, hot, "perf-hash-container",
                         file.lineOf(hot.def.bodyBegin + pos),
                         "lookup/update on std::" + var->kind +
                             " '" + name + "' (declared at " +
                             var->file + ":" +
                             std::to_string(var->line) + ")",
                         ctx, findings, seen);
            pos = after;
        }
    }
}

void
checkVirtualRule(const Corpus &corpus, const SourceFile &file,
                 const HotFunction &hot, PerfContext &ctx,
                 std::vector<Finding> &findings,
                 std::set<std::pair<std::string, unsigned>> &seen)
{
    for (const CallSite &call : toolscan::scanCalls(
             file.joined, hot.def.bodyBegin, hot.def.bodyEnd)) {
        if (!call.arrow || call.receiver == "this")
            continue;
        if (!ctx.virtuals.count(unqualifiedName(call.name)))
            continue;
        emitPerf(corpus, file, hot, "perf-virtual-call",
                 file.lineOf(call.offset),
                 "virtual dispatch '" + call.receiver + "->" +
                     call.name + "()'",
                 ctx, findings, seen);
    }
}

void
checkCopyRule(const Corpus &corpus, const SourceFile &file,
              const HotFunction &hot, PerfContext &ctx,
              std::vector<Finding> &findings,
              std::set<std::pair<std::string, unsigned>> &seen)
{
    for (const std::string &param : splitParams(hot.def.params)) {
        if (param.find('&') != std::string::npos ||
            param.find('*') != std::string::npos)
            continue;
        // Known-large std types by value.
        static const std::regex big_std(
            R"(\bstd\s*::\s*(?:vector|string|function|map|set|unordered_map|unordered_set|deque)\b)");
        std::string large_type;
        std::size_t size = 0;
        std::smatch m;
        if (std::regex_search(param, m, big_std)) {
            large_type = m[0].str();
            size = 24;
        } else {
            static const std::regex word(R"([A-Za-z_]\w*)");
            auto begin = std::sregex_iterator(param.begin(),
                                              param.end(), word);
            for (auto it = begin; it != std::sregex_iterator();
                 ++it) {
                const auto sd = ctx.structs.find(it->str());
                if (sd == ctx.structs.end())
                    continue;
                const std::size_t est =
                    estimateStructSize(sd->second);
                if (est > PerfContext::kCopyThresholdBytes &&
                    est > size) {
                    large_type = it->str();
                    size = est;
                }
            }
        }
        if (large_type.empty())
            continue;
        std::string shown;
        for (const char c : param) {
            if (std::isspace(static_cast<unsigned char>(c))) {
                if (!shown.empty() && shown.back() != ' ')
                    shown += ' ';
            } else {
                shown += c;
            }
        }
        emitPerf(corpus, file, hot, "perf-large-copy",
                 file.lineOf(hot.def.nameOffset),
                 "parameter '" + shown + "' passes '" + large_type +
                     "' (~" + std::to_string(size) +
                     " bytes) by value",
                 ctx, findings, seen);
    }
}

void
checkIoRule(const Corpus &corpus, const SourceFile &file,
            const HotFunction &hot, const std::string &body,
            PerfContext &ctx, std::vector<Finding> &findings,
            std::set<std::pair<std::string, unsigned>> &seen)
{
    struct Pattern
    {
        const char *regex;
        const char *what;
    };
    static const Pattern patterns[] = {
        {R"(\bstd\s*::\s*(?:cout|cerr|clog)\b)",
         "stream IO (std::cout/cerr)"},
        {R"(\b(?:printf|fprintf|fputs|fwrite|fopen)\s*\()",
         "stdio call"},
        {R"(\bstd\s*::\s*(?:of|if|f)stream\b)",
         "file stream construction"},
        {R"(\bthrow\b)", "throw expression"},
    };
    for (const Pattern &p : patterns) {
        const std::regex re(p.regex);
        auto begin =
            std::sregex_iterator(body.begin(), body.end(), re);
        for (auto it = begin; it != std::sregex_iterator(); ++it)
            emitPerf(corpus, file, hot, "perf-io-hot",
                     file.lineOf(hot.def.bodyBegin +
                                 static_cast<std::size_t>(
                                     it->position(0))),
                     p.what, ctx, findings, seen);
    }
}

} // namespace

void
runPerfPass(const Corpus &corpus, std::vector<Finding> &findings)
{
    if (!fs::exists(corpus.hotpathsFile))
        return; // no declared hot region: the pass is opt-in

    HotConfig config;
    std::string error;
    if (!parseHotpathsFile(corpus.hotpathsFile, config, error)) {
        findings.push_back(
            {corpus.hotpathsFile.generic_string(), 0,
             "hotpaths-config",
             "cannot load hot-region configuration: " + error,
             "error"});
        return;
    }

    PerfContext ctx;
    ctx.containers = findContainerVars(corpus);
    ctx.virtuals = findVirtualMethodNames(corpus);
    ctx.structs = buildStructRegistry(corpus);
    ctx.baseline = loadBaselineFile(corpus.perfBaselineFile);

    for (const HotFunction &hot : computeHotRegion(corpus, config)) {
        const SourceFile &file = corpus.files[hot.fileIndex];
        const std::string body = file.joined.substr(
            hot.def.bodyBegin, hot.def.bodyEnd - hot.def.bodyBegin);
        std::set<std::pair<std::string, unsigned>> seen;
        checkAllocRule(corpus, file, hot, body, ctx, findings,
                       seen);
        checkContainerRule(corpus, file, hot, body, ctx, findings,
                           seen);
        checkVirtualRule(corpus, file, hot, ctx, findings, seen);
        checkCopyRule(corpus, file, hot, ctx, findings, seen);
        checkIoRule(corpus, file, hot, body, ctx, findings, seen);
    }

    // Burned-down debt must leave the committed list (see the
    // matching rule in the coverage pass).
    for (const auto &entry : ctx.baseline)
        if (!ctx.matchedBaseline.count(entry))
            findings.push_back(
                {corpus.perfBaselineFile.generic_string(), 0,
                 "stale-baseline",
                 "stale baseline entry '" + entry +
                     "': no matching perf finding exists any "
                     "more; delete the line",
                 "error"});
}

} // namespace analyze
} // namespace graphene
