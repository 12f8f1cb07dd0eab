// Catalog: declarations, subtype lattice, entity interning, labels,
// anonymous entities, and value/type checks.
#include <gtest/gtest.h>

#include "datalog/catalog.h"

namespace secureblox::datalog {
namespace {

TEST(CatalogTest, BootstrapsPrimitiveTypes) {
  Catalog c;
  for (const char* name : {"int", "string", "bool", "blob"}) {
    auto id = c.Lookup(name);
    ASSERT_TRUE(id.ok()) << name;
    EXPECT_TRUE(c.decl(id.value()).is_primitive);
    EXPECT_TRUE(c.decl(id.value()).is_type);
  }
  EXPECT_EQ(c.decl(c.int_type()).primitive_kind, ValueKind::kInt);
  EXPECT_EQ(c.decl(c.blob_type()).primitive_kind, ValueKind::kBlob);
}

TEST(CatalogTest, DeclareAndLookup) {
  Catalog c;
  auto p = c.DeclarePredicate("edge", {c.int_type(), c.int_type()}, false);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(c.Lookup("edge").value(), p.value());
  EXPECT_TRUE(c.IsDeclared("edge"));
  EXPECT_FALSE(c.IsDeclared("vertex"));
  EXPECT_FALSE(c.Lookup("vertex").ok());
}

TEST(CatalogTest, IdenticalRedeclarationIsIdempotent) {
  Catalog c;
  auto a = c.DeclarePredicate("p", {c.int_type()}, false);
  auto b = c.DeclarePredicate("p", {c.int_type()}, false);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value(), b.value());
  // Different shape rejected.
  EXPECT_FALSE(c.DeclarePredicate("p", {c.string_type()}, false).ok());
  EXPECT_FALSE(c.DeclarePredicate("p", {c.int_type()}, true).ok());
}

TEST(CatalogTest, EntityInterningIsStable) {
  Catalog c;
  auto t = c.DeclareEntityType("principal").value();
  Value alice1 = c.InternEntity(t, "alice").value();
  Value alice2 = c.InternEntity(t, "alice").value();
  Value bob = c.InternEntity(t, "bob").value();
  EXPECT_EQ(alice1, alice2);
  EXPECT_NE(alice1, bob);
  EXPECT_EQ(c.EntityLabel(alice1).value(), "alice");
  EXPECT_EQ(c.FindEntity(t, "bob").value(), bob);
  EXPECT_FALSE(c.FindEntity(t, "carol").ok());
  EXPECT_EQ(c.EntityLabels(t).size(), 2u);
}

TEST(CatalogTest, EntityTypesAreDistinctNamespaces) {
  Catalog c;
  auto p = c.DeclareEntityType("principal").value();
  auto n = c.DeclareEntityType("node").value();
  Value as_principal = c.InternEntity(p, "x").value();
  Value as_node = c.InternEntity(n, "x").value();
  EXPECT_NE(as_principal, as_node);
}

TEST(CatalogTest, SubtypeLatticeIsTransitiveAndReflexive) {
  Catalog c;
  auto a = c.DeclareEntityType("a").value();
  auto b = c.DeclareEntityType("b").value();
  auto d = c.DeclareEntityType("d").value();
  ASSERT_TRUE(c.AddSubtype(d, b).ok());
  ASSERT_TRUE(c.AddSubtype(b, a).ok());
  EXPECT_TRUE(c.IsSubtype(d, a));  // transitive
  EXPECT_TRUE(c.IsSubtype(a, a));  // reflexive
  EXPECT_FALSE(c.IsSubtype(a, d));
  auto supers = c.SupertypesOf(d);
  EXPECT_EQ(supers.size(), 2u);
}

TEST(CatalogTest, SubtypeBetweenNonTypesRejected) {
  Catalog c;
  auto p = c.DeclarePredicate("p", {c.int_type()}, false).value();
  auto t = c.DeclareEntityType("t").value();
  EXPECT_FALSE(c.AddSubtype(p, t).ok());
}

TEST(CatalogTest, ValueMatchesType) {
  Catalog c;
  auto animal = c.DeclareEntityType("animal").value();
  auto dog = c.DeclareEntityType("dog").value();
  ASSERT_TRUE(c.AddSubtype(dog, animal).ok());
  Value rex = c.InternEntity(dog, "rex").value();
  EXPECT_TRUE(c.ValueMatchesType(rex, dog));
  EXPECT_TRUE(c.ValueMatchesType(rex, animal));  // subtype member
  EXPECT_FALSE(c.ValueMatchesType(rex, c.int_type()));
  EXPECT_TRUE(c.ValueMatchesType(Value::Int(3), c.int_type()));
  EXPECT_FALSE(c.ValueMatchesType(Value::Str("3"), c.int_type()));
  EXPECT_TRUE(c.ValueMatchesType(Value::MakeBlob({1}), c.blob_type()));
}

TEST(CatalogTest, ValueToStringUsesLabels) {
  Catalog c;
  auto t = c.DeclareEntityType("principal").value();
  Value alice = c.InternEntity(t, "alice").value();
  EXPECT_EQ(c.ValueToString(alice), "principal:alice");
  EXPECT_EQ(c.ValueToString(Value::Int(5)), "5");
  EXPECT_EQ(c.ValueToString(Value::Str("hi")), "\"hi\"");
}

TEST(CatalogTest, EntityOperationsOnNonEntityTypesFail) {
  Catalog c;
  auto p = c.DeclarePredicate("p", {c.int_type()}, false).value();
  EXPECT_FALSE(c.InternEntity(p, "x").ok());
  EXPECT_FALSE(c.FindEntity(p, "x").ok());
  EXPECT_FALSE(c.EntityLabel(Value::Int(1)).ok());
}

TEST(CatalogTest, EntityTypeVsPredicateNameClash) {
  Catalog c;
  ASSERT_TRUE(c.DeclarePredicate("p", {c.int_type()}, false).ok());
  EXPECT_FALSE(c.DeclareEntityType("p").ok());
  ASSERT_TRUE(c.DeclareEntityType("e").ok());
  EXPECT_TRUE(c.DeclareEntityType("e").ok());  // idempotent
}

}  // namespace
}  // namespace secureblox::datalog
