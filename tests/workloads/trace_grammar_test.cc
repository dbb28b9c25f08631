/**
 * @file
 * Differential tests for the trace-line grammar.
 *
 * The ACT-trace and request-trace readers are checked against an
 * oracle built on formatted istream extraction: one istringstream per
 * line, `>>` into each field, a minus-sign scan and a trailing-garbage
 * check. That was the readers' original implementation, and its
 * verdicts and error texts are the contract. Every line gets its
 * accept/reject verdict and its exact error message compared, over a
 * hand-picked edge-case table with literal expectations and over a
 * seeded random corpus of lines and multi-line streams.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/random.hh"
#include "workloads/trace_io.hh"

namespace graphene {
namespace workloads {
namespace {

// ---------------------------------------------------------------------------
// The oracle: the istringstream-per-line readers.

Error
refParseError(const char *what, std::size_t line_no,
              const std::string &line)
{
    return Error(ErrorCode::Parse,
                 strprintf("%s at line %zu: '%s'", what, line_no,
                           line.c_str()));
}

bool
refTrailingGarbage(std::istringstream &ss)
{
    ss >> std::ws;
    return ss.peek() != std::istringstream::traits_type::eof();
}

bool
refMinusSign(const std::string &line)
{
    return line.find('-') != std::string::npos;
}

Result<std::vector<Row>>
refReadActTrace(std::istream &is)
{
    std::vector<Row> rows;
    std::string line;
    std::size_t line_no = 0;
    while (std::getline(is, line)) {
        ++line_no;
        if (is.eof() && !line.empty())
            return refParseError("ACT trace truncated (final record "
                                 "has no newline)",
                                 line_no, line);
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ss(line);
        std::uint64_t row_bits;
        if (!(ss >> row_bits) || refMinusSign(line))
            return refParseError("ACT trace parse error", line_no,
                                 line);
        if (refTrailingGarbage(ss))
            return refParseError("ACT trace parse error (trailing "
                                 "garbage)",
                                 line_no, line);
        if (row_bits >= Row::invalid().value())
            return refParseError("ACT trace row out of range", line_no,
                                 line);
        rows.push_back(Row{static_cast<Row::rep>(row_bits)});
    }
    if (rows.empty())
        return Error(ErrorCode::Parse,
                     "ACT trace contains no records (empty or "
                     "comment-only input)");
    return rows;
}

Result<std::vector<TraceRecord>>
refReadTrace(std::istream &is)
{
    std::vector<TraceRecord> records;
    std::string line;
    std::size_t line_no = 0;
    while (std::getline(is, line)) {
        ++line_no;
        if (is.eof() && !line.empty())
            return refParseError("trace truncated (final record has "
                                 "no newline)",
                                 line_no, line);
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ss(line);
        TraceRecord r;
        std::string rw;
        std::uint64_t issue = 0;
        std::uint64_t addr_bits = 0;
        if (!(ss >> issue >> std::hex >> addr_bits >> std::dec >> rw >>
              r.coreId) ||
            (rw != "R" && rw != "W") || refMinusSign(line))
            return refParseError("trace parse error", line_no, line);
        if (refTrailingGarbage(ss))
            return refParseError("trace parse error (trailing "
                                 "garbage)",
                                 line_no, line);
        r.issue = Cycle{issue};
        r.addr = Addr{addr_bits};
        r.isWrite = rw == "W";
        records.push_back(r);
    }
    if (records.empty())
        return Error(ErrorCode::Parse,
                     "trace contains no records (empty or "
                     "comment-only input)");
    return records;
}

// ---------------------------------------------------------------------------
// Verdicts as comparable strings.

std::string
errorVerdict(const Error &e)
{
    return strprintf("error %s: %s", errorCodeName(e.code()),
                     e.message().c_str());
}

std::string
verdict(const Result<std::vector<Row>> &r)
{
    if (!r.ok())
        return errorVerdict(r.error());
    std::string s = "ok";
    for (Row row : r.value())
        s += strprintf(" %u", row.value());
    return s;
}

std::string
verdict(const Result<std::vector<TraceRecord>> &r)
{
    if (!r.ok())
        return errorVerdict(r.error());
    std::string s = "ok";
    for (const TraceRecord &rec : r.value())
        s += strprintf(" [%llu 0x%llx %c %u]",
                       static_cast<unsigned long long>(rec.issue.value()),
                       static_cast<unsigned long long>(rec.addr.value()),
                       rec.isWrite ? 'W' : 'R', rec.coreId);
    return s;
}

std::string
actVerdict(const std::string &text)
{
    std::istringstream is(text);
    return verdict(readActTrace(is));
}

std::string
refActVerdict(const std::string &text)
{
    std::istringstream is(text);
    return verdict(refReadActTrace(is));
}

/** The chunked cursor drained @p chunk rows at a time. */
std::string
cursorVerdict(const std::string &text, std::size_t chunk)
{
    std::istringstream is(text);
    ActTraceCursor cursor(is);
    std::vector<Row> rows;
    for (;;) {
        std::vector<Row> part;
        const Result<std::size_t> got = cursor.read(part, chunk);
        if (!got.ok())
            return errorVerdict(got.error());
        if (got.value() == 0)
            break;
        rows.insert(rows.end(), part.begin(), part.end());
    }
    return verdict(Result<std::vector<Row>>(rows));
}

std::string
requestVerdict(const std::string &text)
{
    std::istringstream is(text);
    return verdict(readTrace(is));
}

std::string
refRequestVerdict(const std::string &text)
{
    std::istringstream is(text);
    return verdict(refReadTrace(is));
}

// ---------------------------------------------------------------------------
// Literal expectations for the edge cases.

struct Case
{
    const char *line; ///< One line, without its newline.
    const char *expect;
};

const char *const kActParse = "error parse: ACT trace parse error at line 1: '";
const char *const kActGarbage =
    "error parse: ACT trace parse error (trailing garbage) at line 1: '";
const char *const kActRange =
    "error parse: ACT trace row out of range at line 1: '";

std::string
actExpect(const char *prefix, const char *line)
{
    return std::string(prefix) + line + "'";
}

TEST(TraceGrammar, ActLinesMatchLiteralVerdicts)
{
    const Case accepted[] = {
        {"5", "ok 5"},
        {"  5", "ok 5"},
        {"\t5", "ok 5"},
        {"5  ", "ok 5"},
        {"5\t", "ok 5"},
        {"5\r", "ok 5"},
        {" \t5 \t\r", "ok 5"},
        {"+7", "ok 7"},
        {"007", "ok 7"},
        {"4294967294", "ok 4294967294"},
    };
    for (const Case &c : accepted) {
        const std::string text = std::string(c.line) + "\n";
        EXPECT_EQ(actVerdict(text), c.expect) << '"' << c.line << '"';
        EXPECT_EQ(refActVerdict(text), c.expect) << '"' << c.line << '"';
    }

    struct Reject
    {
        const char *line;
        const char *prefix;
    };
    const Reject rejected[] = {
        {"+", kActParse},
        {"-0", kActParse},
        {"-5", kActParse},
        {"5 -", kActParse},
        {" ", kActParse},
        {"\r", kActParse},
        {"+ 7", kActParse},
        {"++7", kActParse},
        {"x", kActParse},
        {" #5", kActParse},
        {"18446744073709551616", kActParse},
        {"1 2", kActGarbage},
        {"0x10", kActGarbage},
        {"5abc", kActGarbage},
        {"5.0", kActGarbage},
        {"7 #", kActGarbage},
        {"4294967295", kActRange},
        {"18446744073709551615", kActRange},
    };
    for (const Reject &c : rejected) {
        const std::string text = std::string(c.line) + "\n";
        const std::string want = actExpect(c.prefix, c.line);
        EXPECT_EQ(actVerdict(text), want) << '"' << c.line << '"';
        EXPECT_EQ(refActVerdict(text), want) << '"' << c.line << '"';
    }
}

TEST(TraceGrammar, RequestLinesMatchLiteralVerdicts)
{
    const Case accepted[] = {
        {"10 0x10 R 1", "ok [10 0x10 R 1]"},
        {"  10\t0x10  W  1  \r", "ok [10 0x10 W 1]"},
        {"+7 +0x10 R +1", "ok [7 0x10 R 1]"},
        {"10 0X1f R 0", "ok [10 0x1f R 0]"},
        {"10 1f R 0", "ok [10 0x1f R 0]"},
        {"10 FF W 2", "ok [10 0xff W 2]"},
        {"10 0 R 0", "ok [10 0x0 R 0]"},
        {"10 0x10 R 4294967295", "ok [10 0x10 R 4294967295]"},
        {"18446744073709551615 0xffffffffffffffff W 3",
         "ok [18446744073709551615 0xffffffffffffffff W 3]"},
        // Fields end where their digits do, not at whitespace.
        {"10 0x10R 1", "ok [10 0x10 R 1]"},
    };
    for (const Case &c : accepted) {
        const std::string text = std::string(c.line) + "\n";
        EXPECT_EQ(requestVerdict(text), c.expect) << '"' << c.line << '"';
        EXPECT_EQ(refRequestVerdict(text), c.expect)
            << '"' << c.line << '"';
    }

    const char *const parse = "error parse: trace parse error at line 1: '";
    const char *const garbage =
        "error parse: trace parse error (trailing garbage) at line 1: '";
    struct Reject
    {
        const char *line;
        const char *prefix;
    };
    const Reject rejected[] = {
        {"+ 0x10 R 1", parse},
        {"10 + R 1", parse},
        {"10 0x10 R +", parse},
        {"-0 0x10 R 1", parse},
        {"10 0x10 R -0", parse},
        {"10 0x10 R 1 -", parse},
        {"0x10 0x10 R 1", parse},
        {"10 0x R 1", parse},
        {"10 0xg R 1", parse},
        {"10 0xx5 R 1", parse},
        {"10 0x0x5 R 1", parse}, // one prefix: "x5" is the R/W field
        {"10 0x10 X 1", parse},
        {"10 0x10 RW 1", parse},
        {"10 0x10 R", parse},
        {"10 0x10 R 4294967296", parse},
        {"18446744073709551616 0x10 R 1", parse},
        {"10 0x10000000000000000 R 1", parse},
        {" ", parse},
        {"\r", parse},
        {"10 0x10 R 1 2", garbage},
        {"10 0x10 R 0x1", garbage},
        {"10 0x10 R 1\tjunk", garbage},
    };
    for (const Reject &c : rejected) {
        const std::string text = std::string(c.line) + "\n";
        const std::string want = std::string(c.prefix) + c.line + "'";
        EXPECT_EQ(requestVerdict(text), want) << '"' << c.line << '"';
        EXPECT_EQ(refRequestVerdict(text), want) << '"' << c.line << '"';
    }
}

TEST(TraceGrammar, StreamLevelErrorsMatchLiteralVerdicts)
{
    EXPECT_EQ(actVerdict("1\n2"),
              "error parse: ACT trace truncated (final record has no "
              "newline) at line 2: '2'");
    EXPECT_EQ(actVerdict("# c\n\n"),
              "error parse: ACT trace contains no records (empty or "
              "comment-only input)");
    EXPECT_EQ(actVerdict("1\n\n# c\n2\nbad\n"),
              "error parse: ACT trace parse error at line 5: 'bad'");
    EXPECT_EQ(requestVerdict("1 0x0 R 0\n2 0x1 W"),
              "error parse: trace truncated (final record has no "
              "newline) at line 2: '2 0x1 W'");
    EXPECT_EQ(requestVerdict(""),
              "error parse: trace contains no records (empty or "
              "comment-only input)");
}

// ---------------------------------------------------------------------------
// Seeded random corpus.

/** A random line over the characters the grammar treats specially. */
std::string
randomCharLine(Rng &rng)
{
    static const char kAlphabet[] = "0017aAfFxX+- \t\r\v#.gRW";
    const std::size_t len = rng.nextRange(12);
    std::string line;
    for (std::size_t i = 0; i < len; ++i)
        line += kAlphabet[rng.nextRange(sizeof(kAlphabet) - 1)];
    return line;
}

/** A random near-valid line built from edge-case tokens. */
std::string
randomTokenLine(Rng &rng)
{
    static const char *const kTokens[] = {
        "0",     "00",   "7",     "+7",   "+",    "-0",   "0x",
        "0x10",  "0X1f", "1f",    "0x0x5", "00x5", "ff",  "R",
        "0x0",   "0xx5", "0x1x5", "0X",
        "W",     "RW",   "r",     "#",    ".5",   "4294967295",
        "4294967296",    "18446744073709551615",
        "18446744073709551616", "0x10000000000000000",
    };
    static const char *const kSeps[] = {" ", "  ", "\t", "", " \t"};
    const std::size_t fields = 1 + rng.nextRange(5);
    std::string line;
    if (rng.bernoulli(0.2))
        line += kSeps[rng.nextRange(5)];
    for (std::size_t i = 0; i < fields; ++i) {
        if (i > 0)
            line += kSeps[rng.nextRange(5)];
        line += kTokens[rng.nextRange(sizeof(kTokens) / sizeof(*kTokens))];
    }
    if (rng.bernoulli(0.2))
        line += kSeps[rng.nextRange(5)];
    if (rng.bernoulli(0.1))
        line += "\r";
    return line;
}

std::string
randomLine(Rng &rng)
{
    return rng.bernoulli(0.5) ? randomCharLine(rng) : randomTokenLine(rng);
}

TEST(TraceGrammar, RandomLinesMatchTheIstreamOracle)
{
    Rng rng(0x7ace5eedULL);
    for (int i = 0; i < 20000; ++i) {
        const std::string text = randomLine(rng) + "\n";
        ASSERT_EQ(actVerdict(text), refActVerdict(text))
            << "ACT line \"" << text << '"';
        ASSERT_EQ(requestVerdict(text), refRequestVerdict(text))
            << "request line \"" << text << '"';
    }
}

TEST(TraceGrammar, RandomStreamsMatchTheIstreamOracle)
{
    Rng rng(0x57ea4500ULL);
    for (int i = 0; i < 3000; ++i) {
        std::string text;
        const std::size_t lines = 1 + rng.nextRange(5);
        for (std::size_t l = 0; l < lines; ++l) {
            text += randomLine(rng);
            if (l + 1 < lines || rng.bernoulli(0.8))
                text += "\n";
        }
        const std::string ref = refActVerdict(text);
        ASSERT_EQ(actVerdict(text), ref) << "ACT stream \"" << text << '"';
        ASSERT_EQ(cursorVerdict(text, 1), ref)
            << "ACT stream \"" << text << '"';
        ASSERT_EQ(cursorVerdict(text, 3), ref)
            << "ACT stream \"" << text << '"';
        ASSERT_EQ(requestVerdict(text), refRequestVerdict(text))
            << "request stream \"" << text << '"';
    }
}

} // namespace
} // namespace workloads
} // namespace graphene
