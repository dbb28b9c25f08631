/**
 * @file
 * Scanner utilities for graphene_analyze.
 *
 * The analyzer works at the token/regex level (deliberately no
 * libclang dependency): strip comments and string literals while
 * preserving line structure, look up waiver markers on the raw text,
 * extract function definitions, and report findings in one
 * machine-readable shape. The passes keep only their rules.
 *
 * Buildable with a bare C++17 toolchain (CI compiles the analyzer
 * with plain g++, no CMake), so nothing here may depend on src/.
 */

#ifndef TOOLS_ANALYZE_SCAN_HH
#define TOOLS_ANALYZE_SCAN_HH

#include <filesystem>
#include <iosfwd>
#include <string>
#include <vector>

namespace graphene {
namespace toolscan {

/** One reported defect. `severity` is "error" (affects the exit
 *  status) or "warning" (reported, never fatal). */
struct Finding
{
    std::string file;
    unsigned line = 0;
    std::string rule;
    std::string message;
    std::string severity = "error";
};

/**
 * Remove comments and string/character literal contents while
 * preserving line structure, so rule regexes never fire on prose.
 * Raw string literals (R"delim(...)delim") and preprocessor-disabled
 * `#if 0` regions are stripped too — both can hold arbitrary
 * code-shaped text that must never reach a rule. Raw lines are kept
 * separately (rawLines) for marker lookup.
 */
std::vector<std::string> stripLines(const std::string &text);

/** Split @p text into lines verbatim. */
std::vector<std::string> rawLines(const std::string &text);

/** Read a whole file; false (and untouched @p out) when unreadable. */
bool readFile(const std::filesystem::path &path, std::string &out);

/** True when line @p i or the line directly above carries @p marker. */
bool suppressed(const std::vector<std::string> &raw, std::size_t i,
                const std::string &marker);

/**
 * True when an `analyze: allow(<rule>)` waiver covers line @p i (the
 * line itself or the one above).
 */
bool allowMarker(const std::vector<std::string> &raw, std::size_t i,
                 const std::string &rule);

/** True when @p s ends with @p suffix. */
bool endsWith(const std::string &s, const std::string &suffix);

/** True for the C++ source extensions the analyzer scans. */
bool lintableExtension(const std::filesystem::path &p);

/** JSON string escaping (quotes included in the return value). */
std::string jsonQuote(const std::string &s);

/**
 * The machine-readable findings shape:
 *   {"tool":"<name>","findings":[{"file":...,"line":N,"rule":...,
 *    "message":...,"severity":...}],"errors":N,"warnings":N}
 * Findings are written in the given order.
 */
void writeFindingsJson(std::ostream &os, const std::string &tool,
                       const std::vector<Finding> &findings);

/** Render one finding as the human-readable single-line report. */
std::string formatFinding(const Finding &f);

// ---- function-definition extraction --------------------------------
//
// Token-level (deliberately not a C++ parser): good enough to find
// which functions exist and where their bodies are, which is what the
// fingerprint, result, coverage and ckpt passes need. Operates on
// comment/string-stripped text joined with '\n' so literals and
// disabled regions never fabricate definitions.

/** One function definition found in stripped text. */
struct ScannedFunction
{
    /** Name as written, possibly qualified ("Cache::addressOf"). */
    std::string name;

    /** Parameter-list text between the parens. */
    std::string params;

    std::size_t nameOffset = 0; ///< Offset of the name in the text.
    std::size_t bodyBegin = 0;  ///< Offset just past the '{'.
    std::size_t bodyEnd = 0;    ///< Offset of the matching '}'.
};

/**
 * Offset of the '}' matching the '{' at @p open_brace;
 * std::string::npos when unbalanced.
 */
std::size_t matchBrace(const std::string &text,
                       std::size_t open_brace);

/**
 * Scan stripped text for function definitions: free functions,
 * out-of-line member definitions, and in-class bodies. Control
 * keywords (if/for/while/switch/catch) are skipped. Not a parser —
 * heavily-templated signatures or parens inside parameter defaults
 * may be missed, which the repo's conventions avoid.
 */
std::vector<ScannedFunction> scanFunctions(const std::string &text);

/** Count of findings with severity "error". */
std::size_t errorCount(const std::vector<Finding> &findings);

} // namespace toolscan
} // namespace graphene

#endif // TOOLS_ANALYZE_SCAN_HH
