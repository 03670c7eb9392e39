#include "idl/idl.hpp"

#include <gtest/gtest.h>

namespace legion::idl {
namespace {

TEST(IdlTest, ParsesMinimalInterface) {
  auto parsed = ParseSingle("interface Empty { };");
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed->interface.name(), "Empty");
  EXPECT_TRUE(parsed->interface.methods().empty());
  EXPECT_TRUE(parsed->bases.empty());
}

TEST(IdlTest, ParsesMethodsWithParameters) {
  auto parsed = ParseSingle(R"(
    interface FileObject {
      int read(int offset, int count);
      void write(int offset, bytes data);
      string name();
    };
  )");
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  const auto& iface = parsed->interface;
  ASSERT_EQ(iface.methods().size(), 3u);
  const auto* read = iface.find("read");
  ASSERT_NE(read, nullptr);
  EXPECT_EQ(read->return_type, "int");
  ASSERT_EQ(read->parameters.size(), 2u);
  EXPECT_EQ(read->parameters[0].type, "int");
  EXPECT_EQ(read->parameters[0].name, "offset");
  EXPECT_TRUE(iface.find("name")->parameters.empty());
}

TEST(IdlTest, ParameterNamesAreOptional) {
  auto parsed = ParseSingle("interface T { void m(int, string s); };");
  ASSERT_TRUE(parsed.ok());
  const auto* m = parsed->interface.find("m");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->parameters[0].name, "");
  EXPECT_EQ(m->parameters[1].name, "s");
}

TEST(IdlTest, ParsesBaseList) {
  auto parsed = ParseSingle(
      "interface UnixSMMP : UnixHost, Monitored { void boot(); };");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->bases, (std::vector<std::string>{"UnixHost", "Monitored"}));
}

TEST(IdlTest, ParsesMultipleInterfaces) {
  auto all = Parse(R"(
    interface A { void a(); };
    interface B : A { void b(); };
  )");
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), 2u);
  EXPECT_EQ((*all)[0].interface.name(), "A");
  EXPECT_EQ((*all)[1].bases, (std::vector<std::string>{"A"}));
}

TEST(IdlTest, CommentsAreIgnored) {
  auto parsed = ParseSingle(R"(
    // The Legion host interface.
    interface Host {
      /* start an object
         from an OPR */
      binding StartObject(bytes opr);
    };
  )");
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_TRUE(parsed->interface.has_method("StartObject"));
}

TEST(IdlTest, TrailingSemicolonOptional) {
  EXPECT_TRUE(ParseSingle("interface T { }").ok());
  EXPECT_TRUE(ParseSingle("interface T { };").ok());
}

TEST(IdlTest, MplDialectParses) {
  // The paper's footnote: "At least two different IDL's will be supported
  // by Legion: the CORBA IDL ... and the Mentat Programming Language".
  auto parsed = ParseSingle(R"(
      persistent mentat class SparseSolver : Solver {
        bytes solve(bytes matrix);
      };
  )");
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed->interface.name(), "SparseSolver");
  EXPECT_EQ(parsed->bases, (std::vector<std::string>{"Solver"}));
  EXPECT_TRUE(parsed->interface.has_method("solve"));
}

TEST(IdlTest, MplWithoutPersistentQualifier) {
  auto parsed = ParseSingle("mentat class W { void work(); };");
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed->interface.name(), "W");
}

TEST(IdlTest, DialectsMixInOneFile) {
  auto all = Parse(R"(
      interface Base { void a(); };
      mentat class Derived : Base { void b(); };
  )");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 2u);
}

TEST(IdlTest, MplMissingClassKeywordRejected) {
  auto result = ParseSingle("mentat Worker { };");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("'class'"), std::string::npos);
}

TEST(IdlTest, PersistentRequiresMentat) {
  EXPECT_FALSE(ParseSingle("persistent interface T { };").ok());
}

struct ErrorCase {
  std::string label;     // stable case name (ctest derives test names from it)
  std::string source;
  std::string fragment;  // expected in the error message
};

// Without a printer gtest dumps the struct's bytes, heap pointers included,
// and gtest_discover_tests turns that dump into the ctest name — which then
// changes on every build. Print the label instead.
void PrintTo(const ErrorCase& c, std::ostream* os) { *os << c.label; }

class IdlErrorSweep : public ::testing::TestWithParam<ErrorCase> {};

TEST_P(IdlErrorSweep, ReportsPositionAndReason) {
  auto result = ParseSingle(GetParam().source);
  ASSERT_FALSE(result.ok()) << GetParam().source;
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find(GetParam().fragment),
            std::string::npos)
      << result.status().message();
}

INSTANTIATE_TEST_SUITE_P(
    Errors, IdlErrorSweep,
    ::testing::Values(
        ErrorCase{"MissingInterfaceKeyword", "iface T { };",
                  "expected 'interface'"},
        ErrorCase{"MissingInterfaceName", "interface { };", "interface name"},
        ErrorCase{"MissingParameterType", "interface T { int m(; };",
                  "parameter type"},
        ErrorCase{"MissingMethodSemicolon", "interface T { int m() };", "';'"},
        ErrorCase{"TruncatedMethod", "interface T { int m(int x) ", "';'"},
        ErrorCase{"MissingBaseName", "interface T : { };", "base name"},
        ErrorCase{"DuplicateMethod", "interface T { void m(); void m(); };",
                  "duplicate method"},
        ErrorCase{"UnexpectedCharacter", "interface T { @ };",
                  "unexpected character"},
        ErrorCase{"UnterminatedBlockComment", "interface T { /* oops };",
                  "unterminated block comment"}));

TEST(IdlTest, ErrorsCarryLineNumbers) {
  auto result = ParseSingle("interface T {\n  int m()\n};");
  ASSERT_FALSE(result.ok());
  // The missing ';' is detected on line 3.
  EXPECT_EQ(result.status().message().substr(0, 2), "3:");
}

TEST(IdlTest, ParseSingleRejectsZeroOrMany) {
  EXPECT_FALSE(ParseSingle("").ok());
  EXPECT_FALSE(ParseSingle("interface A {}; interface B {};").ok());
}

TEST(IdlTest, RenderRoundTripsThroughParse) {
  const std::string source = R"(interface File {
  int read(int offset, int count);
  void close();
};)";
  auto parsed = ParseSingle(source);
  ASSERT_TRUE(parsed.ok());
  auto reparsed = ParseSingle(Render(parsed->interface));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().to_string();
  EXPECT_EQ(reparsed->interface, parsed->interface);
}

}  // namespace
}  // namespace legion::idl
