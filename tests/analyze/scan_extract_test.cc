/**
 * @file
 * Unit tests for the toolscan extraction layer the analyzer passes
 * build on: comment/raw-string/#if-0 stripping and function-definition
 * scanning (free, member, out-of-line qualified).
 */

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "scan.hh"

namespace {

using graphene::toolscan::scanFunctions;
using graphene::toolscan::ScannedFunction;
using graphene::toolscan::stripLines;

std::string
join(const std::vector<std::string> &lines)
{
    return std::accumulate(lines.begin(), lines.end(), std::string(),
                           [](std::string acc, const std::string &l) {
                               acc += l;
                               acc += '\n';
                               return acc;
                           });
}

std::string
stripped(const std::string &text)
{
    return join(stripLines(text));
}

const ScannedFunction *
findFunction(const std::vector<ScannedFunction> &defs,
             const std::string &name)
{
    const auto it = std::find_if(
        defs.begin(), defs.end(),
        [&](const ScannedFunction &f) { return f.name == name; });
    return it == defs.end() ? nullptr : &*it;
}

TEST(StripLines, BlockCommentsNeverLeakCode)
{
    const std::string out = stripped("int a;\n"
                                     "/* auto p = new int(7);\n"
                                     "   x.push_back(1); */\n"
                                     "int b;\n");
    EXPECT_EQ(out.find("new"), std::string::npos);
    EXPECT_EQ(out.find("push_back"), std::string::npos);
    EXPECT_NE(out.find("int a;"), std::string::npos);
    EXPECT_NE(out.find("int b;"), std::string::npos);
    // Line structure is preserved for lineOf() mapping.
    EXPECT_EQ(stripLines("a\n/*\n\n*/\nb\n").size(), 5u);
}

TEST(StripLines, RawStringContentsAreRemoved)
{
    const std::string out = stripped(
        "const char *s = R\"doc(new int(7); x->f();)doc\";\n"
        "int after;\n");
    EXPECT_EQ(out.find("new"), std::string::npos);
    EXPECT_EQ(out.find("->f"), std::string::npos);
    EXPECT_NE(out.find("int after;"), std::string::npos);
}

TEST(StripLines, MultiLineRawStringPreservesLineCount)
{
    const std::vector<std::string> out = stripLines(
        "auto s = R\"(line one\nnew int(2);\nline three)\";\nint z;\n");
    ASSERT_EQ(out.size(), 4u);
    EXPECT_EQ(join(out).find("new"), std::string::npos);
    EXPECT_EQ(out[3], "int z;");
}

TEST(StripLines, RawPrefixInsideIdentifierIsNotARawString)
{
    // FooR"..." must not trigger: 'R' here ends an identifier.
    const std::string out = stripped("int FooR = 1; f(\"new\");\n");
    EXPECT_NE(out.find("FooR"), std::string::npos);
    // The ordinary literal's contents are still stripped.
    EXPECT_EQ(out.find("new"), std::string::npos);
}

TEST(StripLines, IfZeroRegionsAreDisabled)
{
    const std::string out = stripped("int live;\n"
                                     "#if 0\n"
                                     "auto p = new int(7);\n"
                                     "#endif\n"
                                     "int tail;\n");
    EXPECT_EQ(out.find("new"), std::string::npos);
    EXPECT_NE(out.find("int live;"), std::string::npos);
    EXPECT_NE(out.find("int tail;"), std::string::npos);
}

TEST(StripLines, IfZeroElseBranchStaysLive)
{
    const std::string out = stripped("#if 0\n"
                                     "int dead;\n"
                                     "#else\n"
                                     "int alive;\n"
                                     "#endif\n");
    EXPECT_EQ(out.find("int dead;"), std::string::npos);
    EXPECT_NE(out.find("int alive;"), std::string::npos);
}

TEST(StripLines, NestedIfInsideDisabledRegionStaysDead)
{
    const std::string out = stripped("#if 0\n"
                                     "#ifdef FOO\n"
                                     "int dead;\n"
                                     "#endif\n"
                                     "int still_dead;\n"
                                     "#endif\n"
                                     "int live;\n");
    EXPECT_EQ(out.find("dead"), std::string::npos);
    EXPECT_NE(out.find("int live;"), std::string::npos);
}

TEST(ScanFunctions, FreeAndOutOfLineMemberDefinitions)
{
    const std::string text = stripped("int tick(int id)\n"
                                      "{\n"
                                      "    return id;\n"
                                      "}\n"
                                      "int Engine::tick(int id)\n"
                                      "{\n"
                                      "    return id + 1;\n"
                                      "}\n");
    const auto defs = scanFunctions(text);
    ASSERT_EQ(defs.size(), 2u);
    EXPECT_NE(findFunction(defs, "tick"), nullptr);
    const ScannedFunction *member = findFunction(defs, "Engine::tick");
    ASSERT_NE(member, nullptr);
    EXPECT_EQ(member->params, "int id");
    // Body offsets bracket the member body, not the free function's.
    const std::string body = text.substr(
        member->bodyBegin, member->bodyEnd - member->bodyBegin);
    EXPECT_NE(body.find("id + 1"), std::string::npos);
}

TEST(ScanFunctions, ControlKeywordsAreNotDefinitions)
{
    const std::string text = stripped("void f()\n"
                                      "{\n"
                                      "    if (x) {\n"
                                      "    }\n"
                                      "    while (y) {\n"
                                      "    }\n"
                                      "    switch (z) {\n"
                                      "    }\n"
                                      "}\n");
    const auto defs = scanFunctions(text);
    ASSERT_EQ(defs.size(), 1u);
    EXPECT_EQ(defs[0].name, "f");
}

TEST(ScanFunctions, ConstAndOverrideQualifiersAccepted)
{
    const std::string text =
        stripped("int Engine::count() const\n"
                 "{\n"
                 "    return 0;\n"
                 "}\n"
                 "void Engine::run() noexcept\n"
                 "{\n"
                 "}\n");
    const auto defs = scanFunctions(text);
    EXPECT_NE(findFunction(defs, "Engine::count"), nullptr);
    EXPECT_NE(findFunction(defs, "Engine::run"), nullptr);
}

} // namespace
