/**
 * @file
 * graphene_analyze: the repo's one static-analysis binary.
 *
 * Token-level (deliberately no libclang dependency; the scanning
 * substrate is scan.hh) enforcement of line-level conventions and of
 * file- and graph-level properties of the tree. The passes and their
 * rules:
 *
 *   conventions            Eight line-level rules over src/:
 *     raw-domain-type        Domain quantities (cycles, rows, bank
 *                            ids, addresses, activation counts) use
 *                            the strong types from common/types.hh,
 *                            not raw uint32_t/uint64_t.
 *     nondeterministic-rng   No std::rand/srand, std::random_device
 *                            or time-seeded RNG outside
 *                            common/random: every experiment is
 *                            reproducible from an explicit seed.
 *     unordered-map-iteration
 *                            Iterating a std::unordered_map in
 *                            src/core or src/schemes risks
 *                            order-dependent results; each audited
 *                            loop carries a waiver.
 *     float-type             No `float`: physical quantities are
 *                            double (or integral strong types).
 *     contract-macro-include A header using the GRAPHENE_* contract
 *                            macros includes check/contracts.hh
 *                            itself, not transitively.
 *     boundary-fatal         No fatal()/panic() outside the
 *                            logging/error/contract machinery:
 *                            library code returns a typed Result or
 *                            uses GRAPHENE_CHECK (DESIGN.md §9).
 *     raw-thread             No std::thread/jthread/async outside
 *                            src/exp/: parallelism goes through
 *                            exp::Pool (DESIGN.md §10).
 *     direct-logging         No std::cout / printf family outside
 *                            common/logging: library code reports
 *                            through obs:: probes or common/logging
 *                            (std::cerr stays allowed).
 *   layer-dag              The architecture layering declared in
 *                          tools/analyze/layers.toml must hold in
 *                          the real `#include` graph: an include may
 *                          only cross from a layer to one of its
 *                          declared dependencies. Back-edges fail.
 *   include-cycle          The resolved quoted-include graph must be
 *                          acyclic (reported with the full cycle).
 *   fingerprint-completeness
 *                          Every field of a struct handed to a
 *                          fingerprint adder function must be folded
 *                          into the digest — a forgotten field means
 *                          two *different* experiment specs share a
 *                          cache address and the runner silently
 *                          returns stale results. Deliberately
 *                          unhashed fields carry an explicit
 *                          `analyze: fp-exempt(<field>)` waiver with
 *                          a rationale.
 *   result-discard         `Result`-returning calls must not be
 *                          discarded: no `(void)` casts, no bare-
 *                          statement calls, and no unwrapOrFatal()
 *                          outside CLI/bench main() boundaries
 *                          (library code propagates typed errors).
 *   coverage-audit         ProtectionScheme / tracker entry points
 *                          lacking both a GRAPHENE_* contract and an
 *                          obs:: probe report are gaps. Existing
 *                          gaps live in a committed baseline file
 *                          (warnings); *new* gaps are errors.
 *   perf-debt              Call-graph-aware performance audit. The
 *                          scanner's function-definition and
 *                          call-edge extraction computes the
 *                          transitive *hot region* — everything
 *                          reachable from the roots declared in
 *                          tools/analyze/hotpaths.toml (scheme
 *                          onActivate/onRefresh, tracker update
 *                          paths, the bank state machine, the sim
 *                          tick loop) — and five rules fire only
 *                          inside it: perf-alloc (heap allocation,
 *                          growth without reserve, string
 *                          temporaries), perf-hash-container
 *                          (hash/tree container touch), perf-virtual-
 *                          call (pointer dispatch through a virtual
 *                          method), perf-large-copy (by-value struct
 *                          params past a size threshold), and
 *                          perf-io-hot (stream IO / throw). Known
 *                          sites live in the committed
 *                          tools/analyze/perf_baseline.txt burn-down
 *                          list (warnings); *new* sites are errors.
 *   ckpt-completeness      Every `_`-prefixed data member of a class
 *                          defining saveState/restoreState (the
 *                          checkpoint protocol, DESIGN.md §14) must
 *                          be referenced in BOTH bodies — a member
 *                          missing from either side means a kill-
 *                          and-resume silently diverges from the
 *                          uninterrupted run. Deliberately
 *                          unserialized members (config, derived
 *                          caches, transient scratch) carry an
 *                          `analyze: ckpt-exempt(<member>)` waiver
 *                          with a rationale. One-sided pairs
 *                          (saveState without restoreState) are
 *                          errors outright.
 *   stale-baseline         A committed baseline entry (coverage or
 *                          perf) matching no current finding is an
 *                          error: burned-down debt must be pruned
 *                          from the committed files, or the baseline
 *                          quietly stops meaning anything.
 *
 * Waivers: `analyze: allow(<rule>)` on the finding line or the line
 * above; fingerprint exemptions use `analyze: fp-exempt(<field>)` at
 * the field's declaration site or inside the adder function; perf
 * findings accept `analyze: perf-exempt(<reason>)` with a rationale.
 */

#ifndef TOOLS_ANALYZE_ANALYZE_HH
#define TOOLS_ANALYZE_ANALYZE_HH

#include <cstddef>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "scan.hh"

namespace graphene {
namespace analyze {

using toolscan::Finding;

/** One scanned source file. */
struct SourceFile
{
    std::filesystem::path path;

    /** Root-relative generic path ("src/core/graphene.hh"). */
    std::string rel;

    /** Comment/string-stripped lines (rules match on these). */
    std::vector<std::string> code;

    /** Verbatim lines (waiver markers live here). */
    std::vector<std::string> raw;

    /** The stripped lines joined by '\n' (for cross-line regexes). */
    std::string joined;

    /** Byte offset of each line's start within `joined`. */
    std::vector<std::size_t> lineStart;

    /** 1-based line number of byte offset @p off in `joined`. */
    unsigned lineOf(std::size_t off) const;
};

/** Everything a pass needs: the scanned tree plus config paths. */
struct Corpus
{
    std::filesystem::path root;
    std::filesystem::path layersFile;
    std::filesystem::path baselineFile;

    /** Hot-region roots config (perf passes); may not exist. */
    std::filesystem::path hotpathsFile;

    /** Committed perf-debt baseline (perf passes); may not exist. */
    std::filesystem::path perfBaselineFile;

    std::vector<SourceFile> files;

    /** Index into `files` by root-relative path. */
    std::map<std::string, std::size_t> byRel;

    /** Files under src/ (indices), the library-rule scope. */
    std::vector<std::size_t> srcFiles;
};

/**
 * Scan @p root into a corpus: src/ always, plus bench/, examples/,
 * tests/ and tools/ when present (the "top" layer of the DAG).
 * Directories whose name starts with "fixtures" are skipped
 * (known-bad corpora).
 */
Corpus buildCorpus(const std::filesystem::path &root,
                   const std::filesystem::path &layers_file,
                   const std::filesystem::path &baseline_file,
                   const std::filesystem::path &hotpaths_file,
                   const std::filesystem::path &perf_baseline_file);

/**
 * Convenience overload: hotpaths.toml and perf_baseline.txt are
 * looked up next to @p layers_file (which is where every corpus —
 * the real tree and each fixture — keeps its config).
 */
Corpus buildCorpus(const std::filesystem::path &root,
                   const std::filesystem::path &layers_file,
                   const std::filesystem::path &baseline_file);

/** The declared layer architecture (parsed layers.toml). */
struct LayerConfig
{
    struct Layer
    {
        std::string name;
        std::vector<std::string> pathPrefixes;
        std::set<std::string> deps;
        bool dependsOnAll = false; ///< deps = ["*"]
        unsigned line = 0;         ///< declaration line in the file
    };

    std::vector<Layer> layers;

    /** Longest-prefix match of @p rel; nullptr when unmapped. */
    const Layer *layerOf(const std::string &rel) const;
};

/**
 * Parse the layers.toml-style config: `[layer.<name>]` sections with
 * `paths = ["..."]` and `deps = ["..."]` (or `deps = ["*"]`).
 * Returns false and fills @p error on malformed input.
 */
bool parseLayersFile(const std::filesystem::path &file,
                     LayerConfig &config, std::string &error);

/** Pass entry points; each appends findings. */
void runConventionsPass(const Corpus &corpus,
                        std::vector<Finding> &findings);
void runLayerPass(const Corpus &corpus,
                  std::vector<Finding> &findings);
void runFingerprintPass(const Corpus &corpus,
                        std::vector<Finding> &findings);
void runResultPass(const Corpus &corpus,
                   std::vector<Finding> &findings);
void runCoveragePass(const Corpus &corpus,
                     std::vector<Finding> &findings);
void runPerfPass(const Corpus &corpus,
                 std::vector<Finding> &findings);
void runCkptPass(const Corpus &corpus,
                 std::vector<Finding> &findings);

// ---- hot-region computation (perf-debt passes) ---------------------

/** Parsed hotpaths.toml: the declared roots of the hot region. */
struct HotConfig
{
    /**
     * Root function names: "onActivate" (any definition with that
     * unqualified name) or "CounterTable::processActivation"
     * (qualified suffix match).
     */
    std::vector<std::string> roots;

    /**
     * Root-relative path prefixes; every function defined in a
     * matching file is a root ("src/dram/bank.").
     */
    std::vector<std::string> files;
};

/**
 * Parse the hotpaths.toml config: a `[hotpaths]` section with
 * `roots = ["..."]` and `files = ["..."]`. Returns false and fills
 * @p error on malformed input; a missing file is NOT an error (the
 * region is empty and the perf passes stay silent).
 */
bool parseHotpathsFile(const std::filesystem::path &file,
                       HotConfig &config, std::string &error);

/** One function in the computed hot region. */
struct HotFunction
{
    std::size_t fileIndex = 0; ///< corpus file of the definition
    toolscan::ScannedFunction def;

    /** The declared root this function is reachable from. */
    std::string root;
};

/**
 * The transitive hot region: every src/ function definition
 * reachable from the configured roots through name-resolved call
 * edges (an over-approximation — a call to `f` reaches every
 * definition named `f`; conservative in the safe direction for a
 * perf audit).
 */
std::vector<HotFunction>
computeHotRegion(const Corpus &corpus, const HotConfig &config);

/**
 * Load a baseline file of `key` lines ('#' comments allowed) — the
 * shared shape of coverage_baseline.txt and perf_baseline.txt.
 */
std::set<std::string>
loadBaselineFile(const std::filesystem::path &file);

/** All pass names, in execution order. */
const std::vector<std::string> &allPasses();

/** Run the named passes (empty = all) over @p corpus. */
std::vector<Finding> runPasses(const Corpus &corpus,
                               const std::set<std::string> &passes);

// ---- shared parsing helpers (token level) --------------------------

using toolscan::matchBrace;

/** One parsed function definition (token-level approximation). */
struct FunctionDef
{
    std::string name;   ///< possibly qualified ("Cache::addressOf")
    std::string params; ///< parameter-list text between the parens
    std::size_t bodyBegin = 0; ///< offset just past the '{'
    std::size_t bodyEnd = 0;   ///< offset of the matching '}'
    std::size_t nameOffset = 0;
};

/**
 * Token-level function-definition scan of a stripped file. Catches
 * free functions and out-of-class member definitions; skips control
 * keywords (if/for/while/switch/catch) and lambdas. Good enough for
 * the conventions this repo enforces; not a C++ parser.
 */
std::vector<FunctionDef> findFunctions(const SourceFile &file);

/** A struct field parsed from a definition. */
struct StructField
{
    std::string name;
    std::string type;       ///< declared type text (normalised spaces)
    std::size_t fileIndex;  ///< corpus file holding the declaration
    unsigned line;          ///< 1-based declaration line
};

/** A parsed struct definition. */
struct StructDef
{
    std::string name;
    std::size_t fileIndex = 0;
    unsigned line = 0;
    std::vector<StructField> fields;
};

/**
 * Parse every `struct X { ... };` in the corpus's src/ files into a
 * registry keyed by unqualified name. Ambiguous names (two structs
 * with the same unqualified name) are dropped from the registry —
 * passes must not guess.
 */
std::map<std::string, StructDef>
buildStructRegistry(const Corpus &corpus);

} // namespace analyze
} // namespace graphene

#endif // TOOLS_ANALYZE_ANALYZE_HH
