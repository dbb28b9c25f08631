#include "analyze.hh"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <iostream>
#include <regex>

namespace graphene {
namespace analyze {

namespace fs = std::filesystem;

unsigned
SourceFile::lineOf(std::size_t off) const
{
    // lineStart is ascending; the line is the last start <= off.
    auto it = std::upper_bound(lineStart.begin(), lineStart.end(),
                               off);
    return static_cast<unsigned>(it - lineStart.begin());
}

namespace {

std::string
relativeTo(const fs::path &root, const fs::path &p)
{
    std::error_code ec;
    const fs::path rel = fs::relative(p, root, ec);
    if (ec || rel.empty())
        return p.generic_string();
    return rel.generic_string();
}

void
loadFile(const fs::path &root, const fs::path &path, Corpus &corpus)
{
    std::string text;
    if (!toolscan::readFile(path, text)) {
        std::cerr << "graphene_analyze: cannot read " << path
                  << "\n";
        return;
    }
    SourceFile f;
    f.path = path;
    f.rel = relativeTo(root, path);
    f.code = toolscan::stripLines(text);
    f.raw = toolscan::rawLines(text);
    f.joined.reserve(text.size());
    for (const auto &line : f.code) {
        f.lineStart.push_back(f.joined.size());
        f.joined += line;
        f.joined += '\n';
    }
    corpus.byRel[f.rel] = corpus.files.size();
    if (f.rel.rfind("src/", 0) == 0)
        corpus.srcFiles.push_back(corpus.files.size());
    corpus.files.push_back(std::move(f));
}

} // namespace

Corpus
buildCorpus(const fs::path &root, const fs::path &layers_file,
            const fs::path &baseline_file)
{
    Corpus corpus;
    corpus.root = root;
    corpus.layersFile = layers_file;
    corpus.baselineFile = baseline_file;

    std::vector<fs::path> files;
    for (const char *top :
         {"src", "bench", "examples", "tests", "tools"}) {
        const fs::path dir = root / top;
        if (!fs::is_directory(dir))
            continue;
        for (const auto &e : fs::recursive_directory_iterator(dir)) {
            if (!e.is_regular_file() ||
                !toolscan::lintableExtension(e.path()))
                continue;
            // Skip fixture corpora *relative to the scanned root*: a
            // self-test corpus may itself live under a fixtures/
            // directory.
            bool in_fixtures = false;
            for (const auto &part :
                 fs::path(relativeTo(root, e.path())))
                if (part.generic_string().rfind("fixtures", 0) == 0)
                    in_fixtures = true;
            if (in_fixtures)
                continue;
            files.push_back(e.path());
        }
    }
    std::sort(files.begin(), files.end());
    for (const auto &p : files)
        loadFile(root, p, corpus);
    return corpus;
}

namespace {

std::string
collapseSpaces(const std::string &s)
{
    std::string out;
    bool in_space = false;
    for (const char c : s) {
        if (std::isspace(static_cast<unsigned char>(c))) {
            in_space = true;
            continue;
        }
        if (in_space && !out.empty())
            out += ' ';
        in_space = false;
        out += c;
    }
    return out;
}

/** Parse depth-1 field declarations out of one struct body. */
void
parseFields(const SourceFile &file, std::size_t file_index,
            std::size_t body_begin, std::size_t body_end,
            StructDef &def)
{
    // A field declaration: one statement at depth 1, no parens (those
    // are methods / friends), shaped "Type name;", "Type name = X;"
    // or "Type name{X};".
    static const std::regex field(
        R"(^\s*(?:mutable\s+)?([A-Za-z_][\w:<>,\s*&]*?)\s*)"
        R"([&*]?\s*([A-Za-z_]\w*)\s*(?:=[^;]*|\{[^;]*\})?\s*$)");
    static const std::regex skip(
        R"(^\s*(?:using|typedef|friend|static|public|private|)"
        R"(protected|enum|struct|class|template)\b)");

    const std::string &text = file.joined;
    int depth = 1;
    std::size_t stmt_start = body_begin;
    for (std::size_t i = body_begin; i < body_end; ++i) {
        const char c = text[i];
        if (c == '{') {
            ++depth;
        } else if (c == '}') {
            --depth;
            // "Type name{init};" keeps its braces inside the
            // statement; a method body's closing brace also ends a
            // pseudo-statement.
            if (depth == 1 &&
                (i + 1 >= body_end || text[i + 1] != ';'))
                stmt_start = i + 1;
        } else if (c == ';' && depth == 1) {
            std::string stmt =
                text.substr(stmt_start, i - stmt_start);
            const std::size_t stmt_off = stmt_start;
            stmt_start = i + 1;
            if (stmt.find('(') != std::string::npos)
                continue; // method, friend, or function pointer
            // Access labels glue to the next statement; cut at the
            // last ':' that is not part of '::'.
            std::size_t colon = std::string::npos;
            for (std::size_t k = 0; k + 1 <= stmt.size(); ++k) {
                if (stmt[k] != ':')
                    continue;
                const bool dbl =
                    (k + 1 < stmt.size() && stmt[k + 1] == ':') ||
                    (k > 0 && stmt[k - 1] == ':');
                if (!dbl)
                    colon = k;
            }
            if (colon != std::string::npos)
                stmt = stmt.substr(colon + 1);
            if (std::regex_search(stmt, skip))
                continue;
            std::smatch m;
            const std::string collapsed = collapseSpaces(stmt);
            if (!std::regex_match(collapsed, m, field))
                continue;
            StructField sf;
            sf.type = collapseSpaces(m[1].str());
            sf.name = m[2].str();
            if (sf.type.empty() || sf.type == "return")
                continue;
            sf.fileIndex = file_index;
            // Report at the line holding the field *name* (the
            // declaration may span lines).
            sf.line = file.lineOf(
                stmt_off +
                static_cast<std::size_t>(
                    text.substr(stmt_off, i - stmt_off)
                        .rfind(sf.name)));
            def.fields.push_back(std::move(sf));
        }
    }
}

} // namespace

std::map<std::string, StructDef>
buildStructRegistry(const Corpus &corpus)
{
    std::map<std::string, StructDef> registry;
    std::set<std::string> ambiguous;

    for (const std::size_t fi : corpus.srcFiles) {
        const SourceFile &file = corpus.files[fi];
        const std::string &text = file.joined;
        // struct Name { ... }  or  struct Name \n { ... }
        static const std::regex any(
            R"(\bstruct\s+([A-Za-z_]\w*)\s*(\{)?)");
        auto begin =
            std::sregex_iterator(text.begin(), text.end(), any);
        for (auto it = begin; it != std::sregex_iterator(); ++it) {
            const std::smatch &m = *it;
            std::size_t open;
            if (m[2].matched) {
                open = static_cast<std::size_t>(m.position(2));
            } else {
                // Allow only whitespace between the name and '{';
                // anything else is a forward declaration or a
                // variable of struct type.
                std::size_t k = static_cast<std::size_t>(
                    m.position(1) + m.length(1));
                while (k < text.size() &&
                       std::isspace(
                           static_cast<unsigned char>(text[k])))
                    ++k;
                if (k >= text.size() || text[k] != '{')
                    continue;
                open = k;
            }
            const std::size_t close = matchBrace(text, open);
            if (close == std::string::npos)
                continue;
            StructDef def;
            def.name = m[1].str();
            def.fileIndex = fi;
            def.line = file.lineOf(
                static_cast<std::size_t>(m.position(1)));
            parseFields(file, fi, open + 1, close, def);
            if (registry.count(def.name) &&
                registry[def.name].fileIndex != fi)
                ambiguous.insert(def.name);
            registry[def.name] = std::move(def);
        }
    }
    for (const auto &name : ambiguous)
        registry.erase(name);
    return registry;
}

std::set<std::string>
loadBaselineFile(const fs::path &file)
{
    std::set<std::string> entries;
    std::ifstream in(file);
    if (!in)
        return entries;
    std::string line;
    while (std::getline(in, line)) {
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        const std::size_t first = line.find_first_not_of(" \t\r");
        if (first == std::string::npos)
            continue;
        const std::size_t last = line.find_last_not_of(" \t\r");
        entries.insert(line.substr(first, last - first + 1));
    }
    return entries;
}

const std::vector<std::string> &
allPasses()
{
    static const std::vector<std::string> passes = {
        "layer-dag", "fingerprint-completeness", "result-discard",
        "coverage-audit", "ckpt-completeness",
        "conventions"};
    return passes;
}

std::vector<Finding>
runPasses(const Corpus &corpus, const std::set<std::string> &passes)
{
    const auto want = [&](const char *name) {
        return passes.empty() || passes.count(name) != 0;
    };
    std::vector<Finding> findings;
    if (want("layer-dag"))
        runLayerPass(corpus, findings);
    if (want("fingerprint-completeness"))
        runFingerprintPass(corpus, findings);
    if (want("result-discard"))
        runResultPass(corpus, findings);
    if (want("coverage-audit"))
        runCoveragePass(corpus, findings);
    if (want("ckpt-completeness"))
        runCkptPass(corpus, findings);
    if (want("conventions"))
        runConventionsPass(corpus, findings);
    return findings;
}

} // namespace analyze
} // namespace graphene
