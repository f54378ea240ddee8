// AST for the lab-script DSL.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

namespace rabit::script {

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

/// One call argument. Device commands require named arguments (mirroring the
/// keyword-argument style of the paper's Python wrappers); user functions
/// take positional ones.
struct CallArg {
  std::string name;  ///< empty for positional
  ExprPtr value;
};

struct NumberLit {
  double value;
};
struct StringLit {
  std::string value;
};
struct BoolLit {
  bool value;
};
struct NullLit {};
struct Ident {
  std::string name;
};
struct ListLit {
  std::vector<ExprPtr> items;
};
struct Unary {
  std::string op;  ///< "-" or "not"
  ExprPtr operand;
};
struct Binary {
  std::string op;  ///< + - * / % == != < <= > >= and or
  ExprPtr lhs;
  ExprPtr rhs;
};
/// f(args) — user-defined or builtin function.
struct Call {
  std::string callee;
  std::vector<CallArg> args;
};
/// base.method(args) — a device command when base names a device.
struct MethodCall {
  ExprPtr base;
  std::string method;
  std::vector<CallArg> args;
};
/// base[index] — list indexing (number) or object lookup (string).
struct Index {
  ExprPtr base;
  ExprPtr index;
};

/// The element a numeric index selects in a list of `size`, or nullopt when
/// it selects none: NaN, infinities and values outside [0, size). An
/// in-range fraction truncates toward zero. The interpreter and the analyzer
/// both index through this, so the range check runs before any cast.
inline std::optional<std::size_t> list_index(double index, std::size_t size) {
  if (!(index >= 0.0 && index < static_cast<double>(size))) return std::nullopt;
  return static_cast<std::size_t>(index);
}

struct Expr {
  int line = 0;
  int depth = 1;  ///< levels in this subtree (a leaf is 1)
  std::variant<NumberLit, StringLit, BoolLit, NullLit, Ident, ListLit, Unary, Binary, Call,
               MethodCall, Index>
      node;
};

struct Stmt;
using StmtPtr = std::unique_ptr<Stmt>;
using Block = std::vector<StmtPtr>;

struct LetStmt {
  std::string name;
  ExprPtr value;
};
struct AssignStmt {
  std::string name;
  ExprPtr value;
};
struct ExprStmt {
  ExprPtr expr;
};
struct DefStmt {
  std::string name;
  std::vector<std::string> params;
  std::shared_ptr<Block> body;  ///< shared so closures can outlive the AST
};
struct IfStmt {
  ExprPtr condition;
  Block then_branch;
  Block else_branch;
};
struct WhileStmt {
  ExprPtr condition;
  Block body;
};
struct ReturnStmt {
  ExprPtr value;  ///< may be null for bare `return`
};

struct Stmt {
  int line = 0;
  std::variant<LetStmt, AssignStmt, ExprStmt, DefStmt, IfStmt, WhileStmt, ReturnStmt> node;
};

struct Program {
  Block statements;
};

}  // namespace rabit::script
