#include "analyze.hh"

#include <regex>

namespace graphene {
namespace analyze {

namespace {

/**
 * Collect the unqualified names of every function declared to return
 * Result<...> anywhere in src/ — minus any name that is *also*
 * declared with a different return type somewhere (e.g. `finish` is
 * both ErrorCollector's Result-returning close and the void
 * MetricsRegistry::finish). A token-level pass must not guess which
 * overload a call site resolves to, so ambiguous names are excluded
 * rather than half-checked.
 */
std::set<std::string>
resultReturningNames(const Corpus &corpus)
{
    // `ReturnType name(` at token level; the return type is one
    // (possibly qualified/templated) type token.
    static const std::regex decl(
        R"(\b((?:[A-Za-z_][\w:]*\s*)?Result\s*<[^;{}()]*>|[A-Za-z_][\w:<>]*)\s+([A-Za-z_][\w:]*)\s*\()");
    static const std::set<std::string> type_keywords = {
        "return", "new",    "delete", "else",  "case",
        "throw",  "co_return", "if",  "while", "for",
        "switch", "do",     "using",  "goto",  "sizeof"};

    std::set<std::string> result_names, other_names;
    for (const std::size_t fi : corpus.srcFiles) {
        const std::string &text = corpus.files[fi].joined;
        auto begin =
            std::sregex_iterator(text.begin(), text.end(), decl);
        for (auto it = begin; it != std::sregex_iterator(); ++it) {
            const std::string type = (*it)[1].str();
            std::string name = (*it)[2].str();
            if (type_keywords.count(type))
                continue;
            const std::size_t colons = name.rfind("::");
            if (colons != std::string::npos)
                name = name.substr(colons + 2);
            if (type_keywords.count(name) || name == "operator")
                continue;
            // Result-returning means the Result<T> template itself,
            // not a type merely named *Result (SystemResult,
            // CellResult...).
            static const std::regex result_type(
                R"(^(?:[A-Za-z_][\w]*\s*::\s*)*Result\s*<)");
            if (std::regex_search(type, result_type))
                result_names.insert(name);
            else
                other_names.insert(name);
        }
    }
    std::set<std::string> unambiguous;
    for (const auto &name : result_names)
        if (!other_names.count(name))
            unambiguous.insert(name);
    return unambiguous;
}

bool
isBoundaryFile(const std::string &rel)
{
    return rel.rfind("bench/", 0) == 0 ||
           rel.rfind("examples/", 0) == 0 ||
           rel.rfind("tests/", 0) == 0 ||
           rel.rfind("tools/", 0) == 0;
}

/**
 * The 1-based line numbers inside function bodies. A "bare
 * statement" is only a discarded call when it executes — the same
 * token shape at class/namespace scope is a declaration.
 */
std::set<unsigned>
bodyLines(const SourceFile &file)
{
    std::set<unsigned> lines;
    for (const ScannedFunction &func : scanFunctions(file.joined)) {
        const unsigned from = file.lineOf(func.bodyBegin);
        const unsigned to = file.lineOf(func.bodyEnd);
        for (unsigned i = from; i <= to; ++i)
            lines.insert(i);
    }
    return lines;
}

} // namespace

void
runResultPass(const Corpus &corpus, std::vector<Finding> &findings)
{
    // Two regexes per Result-returning name, compiled once for the
    // whole tree rather than per line.
    struct DiscardShapes
    {
        std::string fn;
        // (void) cast of a Result-returning call: the error is
        // silently dropped.
        std::regex voidCast;
        // A Result-returning call as a bare statement: the whole
        // line is `obj.fn(...);` or `ns::fn(...);` with nothing
        // consuming the value.
        std::regex bareStmt;
    };
    std::vector<DiscardShapes> shapes;
    for (const auto &fn : resultReturningNames(corpus))
        shapes.push_back(
            {fn,
             std::regex(R"(\(\s*void\s*\)\s*(?:[\w:]+(?:\.|->))*)" +
                        fn + R"(\s*\()"),
             std::regex(R"(^\s*(?:[A-Za-z_][\w:]*(?:\.|->))*)" + fn +
                        R"(\s*\(.*\)\s*;\s*$)")});

    for (const SourceFile &file : corpus.files) {
        const bool boundary = isBoundaryFile(file.rel);
        const bool error_impl =
            file.rel == "src/common/error.hh" ||
            file.rel == "src/common/error.cc";
        const std::set<unsigned> in_body = bodyLines(file);

        for (std::size_t i = 0; i < file.code.size(); ++i) {
            const std::string &line = file.code[i];

            // unwrapOrFatal converts a typed error into a process
            // exit; that trade is only acceptable where a process
            // exit is the contract — CLI/bench main() trees — and in
            // the helper's own implementation.
            if (!boundary && !error_impl &&
                line.find("unwrapOrFatal") != std::string::npos &&
                !toolscan::allowMarker(file.raw, i, "result-discard")) {
                findings.push_back(
                    {file.rel, static_cast<unsigned>(i + 1),
                     "result-discard",
                     "unwrapOrFatal() in library code: propagate "
                     "the Result to the caller instead; process "
                     "exits belong only at CLI/bench main() "
                     "boundaries (DESIGN.md §9)",
                     "error"});
                continue;
            }

            if (!in_body.count(static_cast<unsigned>(i + 1)))
                continue;

            // A statement only *starts* on this line when the
            // previous code line closed one ('}' '{' ';' or a
            // label); otherwise this line continues an expression
            // whose value the real first line consumes.
            bool starts_statement = true;
            for (std::size_t k = i; k-- > 0;) {
                const std::size_t last =
                    file.code[k].find_last_not_of(" \t");
                if (last == std::string::npos)
                    continue;
                const char c = file.code[k][last];
                starts_statement = c == ';' || c == '{' ||
                                   c == '}' || c == ':';
                break;
            }
            if (!starts_statement)
                continue;

            for (const DiscardShapes &shape : shapes) {
                const bool voided =
                    std::regex_search(line, shape.voidCast);
                if (!voided && !std::regex_match(line, shape.bareStmt))
                    continue;
                if (toolscan::allowMarker(file.raw, i, "result-discard"))
                    continue;
                findings.push_back(
                    {file.rel, static_cast<unsigned>(i + 1),
                     "result-discard",
                     std::string(voided ? "(void)-cast"
                                        : "bare-statement call") +
                         " discards the Result of '" + shape.fn +
                         "': check .ok() and handle or propagate "
                         "the error (a dropped Result hides the "
                         "exact failure DESIGN.md §9 threads to "
                         "the report)",
                     "error"});
                break;
            }
        }
    }
}

} // namespace analyze
} // namespace graphene
