#include "script/parser.hpp"

#include <algorithm>
#include <variant>

namespace rabit::script {

namespace {

/// Deepest expression/statement nesting the parser accepts: parentheses,
/// unary chains, list and call arguments, blocks and else-if chains, and
/// the depth of the expression tree a binary-operator chain builds. Deeper
/// input is a ScriptError, never a stack overflow (in the parser or in the
/// interpreter walking the tree).
constexpr int kMaxNesting = 256;

template <class... Fs>
struct Overloaded : Fs... {
  using Fs::operator()...;
};

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Program parse_program() {
    Program program;
    while (!at_end()) program.statements.push_back(parse_statement());
    return program;
  }

 private:
  [[nodiscard]] const Token& peek(std::size_t offset = 0) const {
    std::size_t index = pos_ + offset;
    return index < tokens_.size() ? tokens_[index] : tokens_.back();
  }
  [[nodiscard]] bool at_end() const { return peek().kind == TokenKind::EndOfFile; }

  const Token& advance() {
    const Token& t = peek();
    if (!at_end()) ++pos_;
    return t;
  }

  [[nodiscard]] bool check_punct(std::string_view text) const {
    return peek().kind == TokenKind::Punct && peek().text == text;
  }
  [[nodiscard]] bool check_keyword(std::string_view word) const {
    return peek().kind == TokenKind::Keyword && peek().text == word;
  }

  bool match_punct(std::string_view text) {
    if (!check_punct(text)) return false;
    advance();
    return true;
  }
  bool match_keyword(std::string_view word) {
    if (!check_keyword(word)) return false;
    advance();
    return true;
  }

  void expect_punct(std::string_view text) {
    if (!match_punct(text)) {
      throw ScriptError("expected '" + std::string(text) + "', got '" + peek().text + "'",
                        peek().line, peek().column);
    }
  }

  std::string expect_identifier(std::string_view what) {
    if (peek().kind != TokenKind::Identifier) {
      throw ScriptError("expected " + std::string(what), peek().line, peek().column);
    }
    return advance().text;
  }

  /// Counts one level of nesting for the scope's lifetime.
  struct Nesting {
    explicit Nesting(Parser& p) : parser(p) {
      if (++parser.depth_ > kMaxNesting) parser.too_deep(parser.peek().line);
    }
    ~Nesting() { --parser.depth_; }
    Nesting(const Nesting&) = delete;
    Nesting& operator=(const Nesting&) = delete;
    Parser& parser;
  };

  [[noreturn]] void too_deep(int line) const {
    throw ScriptError("nesting deeper than " + std::to_string(kMaxNesting) + " levels", line);
  }

  // -- statements ----------------------------------------------------------

  StmtPtr parse_statement() {
    int line = peek().line;
    auto make = [&](auto node) {
      auto stmt = std::make_unique<Stmt>();
      stmt->line = line;
      stmt->node = std::move(node);
      return stmt;
    };

    if (match_keyword("let")) {
      std::string name = expect_identifier("variable name after 'let'");
      expect_punct("=");
      return make(LetStmt{std::move(name), parse_expression()});
    }
    if (match_keyword("def")) return make(parse_def());
    if (match_keyword("if")) return make(parse_if());
    if (match_keyword("while")) {
      expect_punct("(");
      ExprPtr condition = parse_expression();
      expect_punct(")");
      return make(WhileStmt{std::move(condition), parse_block()});
    }
    if (match_keyword("return")) {
      // `return` directly before a closing brace is a bare return.
      if (check_punct("}")) return make(ReturnStmt{nullptr});
      return make(ReturnStmt{parse_expression()});
    }

    // Assignment (IDENT '=' but not '==') or expression statement.
    if (peek().kind == TokenKind::Identifier && peek(1).kind == TokenKind::Punct &&
        peek(1).text == "=") {
      std::string name = advance().text;
      advance();  // '='
      return make(AssignStmt{std::move(name), parse_expression()});
    }
    return make(ExprStmt{parse_expression()});
  }

  DefStmt parse_def() {
    std::string name = expect_identifier("function name after 'def'");
    expect_punct("(");
    std::vector<std::string> params;
    if (!check_punct(")")) {
      do {
        params.push_back(expect_identifier("parameter name"));
      } while (match_punct(","));
    }
    expect_punct(")");
    auto body = std::make_shared<Block>(parse_block());
    return DefStmt{std::move(name), std::move(params), std::move(body)};
  }

  IfStmt parse_if() {
    Nesting nesting(*this);
    expect_punct("(");
    ExprPtr condition = parse_expression();
    expect_punct(")");
    Block then_branch = parse_block();
    Block else_branch;
    if (match_keyword("else")) {
      if (check_keyword("if")) {
        // else-if chains nest as a single-statement else block.
        int line = peek().line;
        advance();
        auto stmt = std::make_unique<Stmt>();
        stmt->line = line;
        stmt->node = parse_if();
        else_branch.push_back(std::move(stmt));
      } else {
        else_branch = parse_block();
      }
    }
    return IfStmt{std::move(condition), std::move(then_branch), std::move(else_branch)};
  }

  Block parse_block() {
    Nesting nesting(*this);
    expect_punct("{");
    Block block;
    while (!check_punct("}")) {
      if (at_end()) throw ScriptError("unterminated block", peek().line, peek().column);
      block.push_back(parse_statement());
    }
    advance();  // '}'
    return block;
  }

  // -- expressions (precedence climbing) ------------------------------------

  ExprPtr parse_expression() {
    Nesting nesting(*this);
    return parse_or();
  }

  /// Builds a node one level above its deepest child; a tree deeper than
  /// kMaxNesting (e.g. a long left-leaning operator chain) is refused.
  ExprPtr make_expr(int line, auto node) {
    auto e = std::make_unique<Expr>();
    e->line = line;
    e->node = std::move(node);
    int below = 0;
    auto child = [&below](const ExprPtr& c) { below = std::max(below, c ? c->depth : 0); };
    auto args = [&child](const std::vector<CallArg>& a) {
      for (const CallArg& arg : a) child(arg.value);
    };
    std::visit(Overloaded{[&](const Unary& n) { child(n.operand); },
                          [&](const Binary& n) { child(n.lhs); child(n.rhs); },
                          [&](const Index& n) { child(n.base); child(n.index); },
                          [&](const ListLit& n) { for (const ExprPtr& i : n.items) child(i); },
                          [&](const Call& n) { args(n.args); },
                          [&](const MethodCall& n) { child(n.base); args(n.args); },
                          [](const auto&) {}},
               e->node);
    e->depth = below + 1;
    if (e->depth > kMaxNesting) too_deep(line);
    return e;
  }

  ExprPtr parse_or() {
    ExprPtr lhs = parse_and();
    while (check_keyword("or")) {
      int line = advance().line;
      lhs = make_expr(line, Binary{"or", std::move(lhs), parse_and()});
    }
    return lhs;
  }

  ExprPtr parse_and() {
    ExprPtr lhs = parse_comparison();
    while (check_keyword("and")) {
      int line = advance().line;
      lhs = make_expr(line, Binary{"and", std::move(lhs), parse_comparison()});
    }
    return lhs;
  }

  ExprPtr parse_comparison() {
    ExprPtr lhs = parse_additive();
    static const char* kOps[] = {"==", "!=", "<=", ">=", "<", ">"};
    for (const char* op : kOps) {
      if (check_punct(op)) {
        int line = advance().line;
        return make_expr(line, Binary{op, std::move(lhs), parse_additive()});
      }
    }
    return lhs;
  }

  ExprPtr parse_additive() {
    ExprPtr lhs = parse_multiplicative();
    while (check_punct("+") || check_punct("-")) {
      std::string op = peek().text;
      int line = advance().line;
      lhs = make_expr(line, Binary{op, std::move(lhs), parse_multiplicative()});
    }
    return lhs;
  }

  ExprPtr parse_multiplicative() {
    ExprPtr lhs = parse_unary();
    while (check_punct("*") || check_punct("/") || check_punct("%")) {
      std::string op = peek().text;
      int line = advance().line;
      lhs = make_expr(line, Binary{op, std::move(lhs), parse_unary()});
    }
    return lhs;
  }

  ExprPtr parse_unary() {
    Nesting nesting(*this);
    if (check_punct("-")) {
      int line = advance().line;
      return make_expr(line, Unary{"-", parse_unary()});
    }
    if (check_keyword("not")) {
      int line = advance().line;
      return make_expr(line, Unary{"not", parse_unary()});
    }
    return parse_postfix();
  }

  ExprPtr parse_postfix() {
    ExprPtr expr = parse_primary();
    while (true) {
      if (match_punct(".")) {
        int line = peek().line;
        std::string method = expect_identifier("method name after '.'");
        expect_punct("(");
        expr = make_expr(line, MethodCall{std::move(expr), std::move(method), parse_args()});
      } else if (check_punct("[")) {
        int line = advance().line;
        ExprPtr index = parse_expression();
        expect_punct("]");
        expr = make_expr(line, Index{std::move(expr), std::move(index)});
      } else {
        break;
      }
    }
    return expr;
  }

  std::vector<CallArg> parse_args() {
    std::vector<CallArg> args;
    if (!check_punct(")")) {
      do {
        CallArg arg;
        // Named argument: IDENT '=' (but not '==').
        if (peek().kind == TokenKind::Identifier && peek(1).kind == TokenKind::Punct &&
            peek(1).text == "=") {
          arg.name = advance().text;
          advance();  // '='
        }
        arg.value = parse_expression();
        args.push_back(std::move(arg));
      } while (match_punct(","));
    }
    expect_punct(")");
    return args;
  }

  ExprPtr parse_primary() {
    const Token& t = peek();
    switch (t.kind) {
      case TokenKind::Number: {
        advance();
        return make_expr(t.line, NumberLit{t.number});
      }
      case TokenKind::String: {
        advance();
        return make_expr(t.line, StringLit{t.text});
      }
      case TokenKind::Keyword: {
        if (t.text == "true" || t.text == "false") {
          advance();
          return make_expr(t.line, BoolLit{t.text == "true"});
        }
        if (t.text == "null") {
          advance();
          return make_expr(t.line, NullLit{});
        }
        throw ScriptError("unexpected keyword '" + t.text + "'", t.line, t.column);
      }
      case TokenKind::Identifier: {
        advance();
        if (match_punct("(")) {
          return make_expr(t.line, Call{t.text, parse_args()});
        }
        return make_expr(t.line, Ident{t.text});
      }
      case TokenKind::Punct: {
        if (t.text == "(") {
          advance();
          ExprPtr inner = parse_expression();
          expect_punct(")");
          return inner;
        }
        if (t.text == "[") {
          advance();
          ListLit list;
          if (!check_punct("]")) {
            do {
              list.items.push_back(parse_expression());
            } while (match_punct(","));
          }
          expect_punct("]");
          return make_expr(t.line, std::move(list));
        }
        throw ScriptError("unexpected token '" + t.text + "'", t.line, t.column);
      }
      case TokenKind::EndOfFile:
        throw ScriptError("unexpected end of script", t.line, t.column);
    }
    throw ScriptError("unexpected token", t.line, t.column);
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  int depth_ = 0;  ///< open nesting levels
};

}  // namespace

Program parse(std::string_view source) { return Parser(tokenize(source)).parse_program(); }

}  // namespace rabit::script
