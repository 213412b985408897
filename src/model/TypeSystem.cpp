//===- model/TypeSystem.cpp - Framework metadata model --------------------===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "model/TypeSystem.h"

#include "support/StrUtil.h"

#include <algorithm>
#include <cassert>
#include <deque>

using namespace petal;

TypeSystem::TypeSystem() {
  // Root namespace.
  Namespaces.push_back(NamespaceInfo{});
  NamespaceByName[""] = 0;

  auto AddBuiltin = [this](const char *Name, TypeKind Kind) {
    TypeId Id = static_cast<TypeId>(Types.size());
    TypeInfo TI;
    TI.Name = Name;
    TI.Namespace = 0;
    TI.Kind = Kind;
    Types.push_back(std::move(TI));
    TypeByName[Name] = Id;
    return Id;
  };

  ObjectTy = AddBuiltin("object", TypeKind::Class);
  VoidTy = AddBuiltin("void", TypeKind::Void);
  ByteTy = AddBuiltin("byte", TypeKind::Primitive);
  ShortTy = AddBuiltin("short", TypeKind::Primitive);
  IntTy = AddBuiltin("int", TypeKind::Primitive);
  LongTy = AddBuiltin("long", TypeKind::Primitive);
  FloatTy = AddBuiltin("float", TypeKind::Primitive);
  DoubleTy = AddBuiltin("double", TypeKind::Primitive);
  CharTy = AddBuiltin("char", TypeKind::Primitive);
  BoolTy = AddBuiltin("bool", TypeKind::Primitive);
  StringTy = AddBuiltin("string", TypeKind::Class);
  NullTy = AddBuiltin("<null>", TypeKind::Class);

  // Widening chain: byte -> short -> int -> long -> float -> double; the
  // chain end's supertype is Object (boxing). char widens to int.
  Types[ByteTy].WideningTarget = ShortTy;
  Types[ShortTy].WideningTarget = IntTy;
  Types[IntTy].WideningTarget = LongTy;
  Types[LongTy].WideningTarget = FloatTy;
  Types[FloatTy].WideningTarget = DoubleTy;
  Types[CharTy].WideningTarget = IntTy;

  for (TypeId T : {ByteTy, ShortTy, IntTy, LongTy, FloatTy, DoubleTy, CharTy})
    Types[T].IsComparable = true;
  // string: reference type with base Object, not comparable with < in C#.
  Types[StringTy].BaseClass = ObjectTy;
}

TypeSystem::TypeSystem(std::shared_ptr<const TypeSystem> BaseLayer)
    : Base(std::move(BaseLayer)) {
  assert(Base && "overlay constructor requires a base layer");
  assert(!Base->Base && "overlays do not stack: the base must be monolithic");
  NumBaseTypes = Base->numTypes();
  NumBaseFields = Base->numFields();
  NumBaseMethods = Base->numMethods();
  NumBaseNamespaces = Base->numNamespaces();
  // Builtins live in the base at the same fixed ids a monolithic
  // constructor would assign them.
  ObjectTy = Base->ObjectTy;
  VoidTy = Base->VoidTy;
  IntTy = Base->IntTy;
  LongTy = Base->LongTy;
  ShortTy = Base->ShortTy;
  ByteTy = Base->ByteTy;
  CharTy = Base->CharTy;
  FloatTy = Base->FloatTy;
  DoubleTy = Base->DoubleTy;
  BoolTy = Base->BoolTy;
  StringTy = Base->StringTy;
  NullTy = Base->NullTy;
}

NamespaceId TypeSystem::getOrAddNamespace(const std::string &FullName) {
  if (Base) {
    auto BaseIt = Base->NamespaceByName.find(FullName);
    if (BaseIt != Base->NamespaceByName.end())
      return BaseIt->second;
  }
  auto It = NamespaceByName.find(FullName);
  if (It != NamespaceByName.end())
    return It->second;

  NamespaceInfo NI;
  NI.FullName = FullName;
  NI.Segments = splitString(FullName, '.');
  // Create the parent chain first.
  if (NI.Segments.size() > 1) {
    std::vector<std::string> ParentSegs(NI.Segments.begin(),
                                        NI.Segments.end() - 1);
    NI.Parent = getOrAddNamespace(joinStrings(ParentSegs, '.'));
  } else {
    NI.Parent = 0;
  }
  NamespaceId Id = static_cast<NamespaceId>(numNamespaces());
  Namespaces.push_back(std::move(NI));
  NamespaceByName[FullName] = Id;
  return Id;
}

TypeId TypeSystem::addType(const std::string &Name, NamespaceId Ns,
                           TypeKind Kind, TypeId Base) {
  assert(DenseN == 0 && "type system mutated after freezeDenseDistances()");
  TypeInfo TI;
  TI.Name = Name;
  TI.Namespace = Ns;
  TI.Kind = Kind;
  if (Kind == TypeKind::Class || Kind == TypeKind::Struct ||
      Kind == TypeKind::Enum)
    TI.BaseClass = isValidId(Base) ? Base : ObjectTy;
  else
    TI.BaseClass = Base;
  if (Kind == TypeKind::Enum)
    TI.IsComparable = true;

  TypeId Id = static_cast<TypeId>(numTypes());
  const std::string &NsName = nspace(Ns).FullName;
  std::string Qual = NsName.empty() ? Name : NsName + "." + Name;
  assert(findType(Qual) == InvalidId && "duplicate type name");
  Types.push_back(std::move(TI));
  TypeByName[Qual] = Id;
  return Id;
}

FieldId TypeSystem::addField(TypeId Owner, const std::string &Name,
                             TypeId Type, bool IsStatic, bool IsProperty) {
  assert(isValidId(Owner) && isValidId(Type) && "invalid field signature");
  FieldId Id = static_cast<FieldId>(numFields());
  Fields.push_back({Name, Owner, Type, IsStatic, IsProperty});
  mutableType(Owner).Fields.push_back(Id);
  return Id;
}

MethodId TypeSystem::addMethod(TypeId Owner, const std::string &Name,
                               TypeId ReturnType, std::vector<ParamInfo> Params,
                               bool IsStatic) {
  assert(isValidId(Owner) && isValidId(ReturnType) &&
         "invalid method signature");
  MethodId Id = static_cast<MethodId>(numMethods());
  Methods.push_back({Name, Owner, ReturnType, std::move(Params), IsStatic});
  mutableType(Owner).Methods.push_back(Id);
  return Id;
}

void TypeSystem::setComparable(TypeId T, bool Value) {
  mutableType(T).IsComparable = Value;
}

void TypeSystem::setBaseClass(TypeId T, TypeId BaseTy) {
  assert((type(BaseTy).Kind == TypeKind::Class) &&
         "base class must be a class");
  assert(DenseN == 0 && "type system mutated after freezeDenseDistances()");
  mutableType(T).BaseClass = BaseTy;
}

void TypeSystem::addInterface(TypeId T, TypeId Iface) {
  assert(type(Iface).Kind == TypeKind::Interface &&
         "addInterface target is not an interface");
  assert(DenseN == 0 && "type system mutated after freezeDenseDistances()");
  mutableType(T).Interfaces.push_back(Iface);
}

std::string TypeSystem::qualifiedName(TypeId T) const {
  const TypeInfo &TI = type(T);
  const std::string &NsName = nspace(TI.Namespace).FullName;
  if (NsName.empty())
    return TI.Name;
  return NsName + "." + TI.Name;
}

TypeId TypeSystem::findType(const std::string &QualifiedName) const {
  if (Base) {
    TypeId T = Base->findType(QualifiedName);
    if (isValidId(T))
      return T;
  }
  auto It = TypeByName.find(QualifiedName);
  return It == TypeByName.end() ? InvalidId : It->second;
}

FieldId TypeSystem::findDeclaredField(TypeId T, const std::string &Name) const {
  for (FieldId F : type(T).Fields)
    if (field(F).Name == Name)
      return F;
  return InvalidId;
}

FieldId TypeSystem::findField(TypeId T, const std::string &Name) const {
  for (TypeId Cur = T; isValidId(Cur); Cur = type(Cur).BaseClass) {
    FieldId F = findDeclaredField(Cur, Name);
    if (isValidId(F))
      return F;
  }
  return InvalidId;
}

std::vector<MethodId> TypeSystem::findMethods(TypeId T,
                                              const std::string &Name) const {
  // Walk the full supertype closure (base classes AND interfaces): a value
  // of a class type can be the receiver of methods its interfaces declare.
  std::vector<MethodId> Result;
  std::vector<TypeId> Work{T};
  std::unordered_map<TypeId, bool> Visited{{T, true}};
  for (size_t I = 0; I != Work.size(); ++I) {
    TypeId Cur = Work[I];
    for (MethodId M : type(Cur).Methods)
      if (method(M).Name == Name)
        Result.push_back(M);
    for (TypeId S : immediateSupertypes(Cur))
      if (!Visited[S]) {
        Visited[S] = true;
        Work.push_back(S);
      }
  }
  return Result;
}

std::vector<FieldId> TypeSystem::visibleFields(TypeId T) const {
  std::vector<FieldId> Result;
  std::vector<std::string> Seen;
  for (TypeId Cur = T; isValidId(Cur); Cur = type(Cur).BaseClass) {
    for (FieldId F : type(Cur).Fields) {
      const std::string &Name = field(F).Name;
      if (std::find(Seen.begin(), Seen.end(), Name) != Seen.end())
        continue;
      Seen.push_back(Name);
      Result.push_back(F);
    }
  }
  return Result;
}

static bool sameSignature(const MethodInfo &A, const MethodInfo &B) {
  if (A.Name != B.Name || A.Params.size() != B.Params.size() ||
      A.IsStatic != B.IsStatic)
    return false;
  for (size_t I = 0; I != A.Params.size(); ++I)
    if (A.Params[I].Type != B.Params[I].Type)
      return false;
  return true;
}

std::vector<MethodId> TypeSystem::visibleMethods(TypeId T) const {
  // BFS over the supertype closure: nearer declarations shadow farther
  // same-signature ones (overrides and interface implementations).
  std::vector<MethodId> Result;
  std::vector<TypeId> Work{T};
  std::unordered_map<TypeId, bool> Visited{{T, true}};
  for (size_t I = 0; I != Work.size(); ++I) {
    TypeId Cur = Work[I];
    for (MethodId M : type(Cur).Methods) {
      bool Overridden = false;
      for (MethodId Existing : Result)
        if (sameSignature(method(Existing), method(M))) {
          Overridden = true;
          break;
        }
      if (!Overridden)
        Result.push_back(M);
    }
    for (TypeId S : immediateSupertypes(Cur))
      if (!Visited[S]) {
        Visited[S] = true;
        Work.push_back(S);
      }
  }
  return Result;
}

bool TypeSystem::isNumeric(TypeId T) const {
  return T == ByteTy || T == ShortTy || T == IntTy || T == LongTy ||
         T == FloatTy || T == DoubleTy || T == CharTy;
}

std::vector<TypeId> TypeSystem::immediateSupertypes(TypeId T) const {
  const TypeInfo &TI = type(T);
  std::vector<TypeId> Supers;
  switch (TI.Kind) {
  case TypeKind::Primitive:
    if (isValidId(TI.WideningTarget))
      Supers.push_back(TI.WideningTarget);
    else if (T != BoolTy)
      Supers.push_back(ObjectTy);
    else
      Supers.push_back(ObjectTy); // bool boxes too.
    break;
  case TypeKind::Class:
  case TypeKind::Struct:
  case TypeKind::Enum:
    if (isValidId(TI.BaseClass))
      Supers.push_back(TI.BaseClass);
    for (TypeId I : TI.Interfaces)
      Supers.push_back(I);
    break;
  case TypeKind::Interface:
    for (TypeId I : TI.Interfaces)
      Supers.push_back(I);
    // An interface value is usable as Object.
    Supers.push_back(ObjectTy);
    break;
  case TypeKind::Void:
    break;
  }
  return Supers;
}

const std::unordered_map<TypeId, int> &
TypeSystem::ancestorDistances(TypeId T) const {
  // Overlay: the cache covers local types only. A base type's distances
  // are answered by the base layer (warmed before overlays attach, so the
  // delegated call is a pure read even under concurrency).
  if (static_cast<size_t>(T) < NumBaseTypes)
    return Base->ancestorDistances(T);
  size_t Slot = static_cast<size_t>(T) - NumBaseTypes;
  if (AncestorCache.size() < Types.size()) {
    AncestorCache.resize(Types.size());
    AncestorCacheValid.resize(Types.size(), false);
  }
  if (AncestorCacheValid[Slot])
    return AncestorCache[Slot];

  // BFS over the supertype graph; the first time a type is reached gives the
  // minimal distance, matching the min in the td recurrence. For overlay
  // types the walk climbs into the base graph read-only (supertype edges
  // are plain TypeInfo reads).
  std::unordered_map<TypeId, int> &Dist = AncestorCache[Slot];
  Dist.clear();
  std::deque<TypeId> Work;
  Dist[T] = 0;
  Work.push_back(T);
  while (!Work.empty()) {
    TypeId Cur = Work.front();
    Work.pop_front();
    int D = Dist[Cur];
    for (TypeId S : immediateSupertypes(Cur)) {
      if (Dist.count(S))
        continue;
      Dist[S] = D + 1;
      Work.push_back(S);
    }
  }
  AncestorCacheValid[Slot] = true;
  return Dist;
}

void TypeSystem::warmRelationCaches() const {
  // Overlays warm their local types only; the base was warmed when it
  // froze.
  for (size_t T = 0; T != Types.size(); ++T)
    ancestorDistances(static_cast<TypeId>(NumBaseTypes + T));
}

bool TypeSystem::freezeDenseDistances() const {
  if (DenseN != 0)
    return true; // idempotent
  // An overlay never builds its own N×N matrix: base×base queries read the
  // base's dense table, and overlay rows stay in the (warmed) lazy maps —
  // that asymmetry is the whole point of the layering.
  if (Base)
    return false;
  size_t N = Types.size();
  if (N == 0 || N * N * sizeof(int16_t) > DenseDistanceBudget)
    return false; // fallback: lazy hash maps (warm them instead)

  warmRelationCaches();
  std::vector<int16_t> M(N * N, NoConversion);
  for (size_t F = 0; F != N; ++F) {
    TypeId From = static_cast<TypeId>(F);
    if (From == NullTy) {
      // `null` converts (at distance 0) to every reference type; it has no
      // supertype edges of its own.
      for (size_t T = 0; T != N; ++T)
        if (isReferenceType(static_cast<TypeId>(T)))
          M[F * N + T] = 0;
      continue;
    }
    for (const auto &[To, D] : ancestorDistances(From)) {
      assert(D >= 0 && D <= INT16_MAX && "type distance overflows int16");
      M[F * N + static_cast<size_t>(To)] = static_cast<int16_t>(D);
    }
  }
  DistMatrix = std::move(M);
  DistData = DistMatrix.data();
  DenseN = N; // publish last: denseDistancesFrozen() keys off this
  return true;
}

void TypeSystem::adoptDenseDistances(
    const int16_t *Table, size_t N,
    std::shared_ptr<const void> KeepAlive) const {
  assert(DenseN == 0 && "dense distances already frozen");
  assert(!Base && "snapshot tables adopt into the base layer, not overlays");
  assert(N == Types.size() && "snapshot distance matrix sized for a "
                              "different type population");
  // Deliberately no warmRelationCaches(): once DenseN is nonzero every
  // relation query reads the table, so the lazy maps are dead weight —
  // skipping their BFS fills is most of the warm-start win.
  DistData = Table;
  DenseKeepAlive = std::move(KeepAlive);
  DenseN = N;
}

bool TypeSystem::implicitlyConvertible(TypeId From, TypeId To) const {
  if (From == To)
    return true;
  if (Base && static_cast<size_t>(From) < NumBaseTypes) {
    // Base From: the only conversion that can leave the base layer is the
    // null literal converting to an overlay reference type — every other
    // base type's supertype closure was sealed when the base froze.
    if (static_cast<size_t>(To) >= NumBaseTypes)
      return From == NullTy && isReferenceType(To);
    return Base->implicitlyConvertible(From, To);
  }
  if (DenseN != 0)
    return denseDistance(From, To) != NoConversion;
  if (From == VoidTy || To == VoidTy)
    return false;
  if (From == NullTy)
    return isReferenceType(To);
  const auto &Dist = ancestorDistances(From);
  return Dist.count(To) != 0;
}

std::optional<int> TypeSystem::typeDistance(TypeId From, TypeId To) const {
  if (Base && static_cast<size_t>(From) < NumBaseTypes) {
    if (From == To)
      return 0;
    if (static_cast<size_t>(To) >= NumBaseTypes)
      return (From == NullTy && isReferenceType(To)) ? std::optional<int>(0)
                                                     : std::nullopt;
    return Base->typeDistance(From, To);
  }
  if (DenseN != 0) {
    int16_t D = denseDistance(From, To);
    if (D == NoConversion)
      return std::nullopt;
    return static_cast<int>(D);
  }
  if (From == NullTy)
    return isReferenceType(To) ? std::optional<int>(0) : std::nullopt;
  const auto &Dist = ancestorDistances(From);
  auto It = Dist.find(To);
  if (It == Dist.end())
    return std::nullopt;
  return It->second;
}

std::optional<int> TypeSystem::operandDistance(TypeId A, TypeId B) const {
  if (auto D = typeDistance(A, B))
    return D;
  return typeDistance(B, A);
}

bool TypeSystem::comparable(TypeId A, TypeId B) const {
  if (isNumeric(A) && isNumeric(B))
    return true;
  if (A == B)
    return type(A).IsComparable;
  // Mixed types: the more general side must be comparable.
  if (implicitlyConvertible(A, B))
    return type(B).IsComparable;
  if (implicitlyConvertible(B, A))
    return type(A).IsComparable;
  return false;
}

bool TypeSystem::assignable(TypeId TargetTy, TypeId ValueTy) const {
  if (TargetTy == VoidTy || ValueTy == VoidTy)
    return false;
  return implicitlyConvertible(ValueTy, TargetTy);
}

size_t TypeSystem::memoryBytes() const {
  size_t Bytes = 0;
  Bytes += Namespaces.capacity() * sizeof(NamespaceInfo);
  Bytes += Types.capacity() * sizeof(TypeInfo);
  Bytes += Fields.capacity() * sizeof(FieldInfo);
  Bytes += Methods.capacity() * sizeof(MethodInfo);
  for (const TypeInfo &TI : Types) {
    Bytes += TI.Name.capacity();
    Bytes += TI.Interfaces.capacity() * sizeof(TypeId);
    Bytes += TI.Fields.capacity() * sizeof(FieldId);
    Bytes += TI.Methods.capacity() * sizeof(MethodId);
  }
  for (const MethodInfo &MI : Methods)
    Bytes += MI.Name.capacity() + MI.Params.capacity() * sizeof(ParamInfo);
  for (const FieldInfo &FI : Fields)
    Bytes += FI.Name.capacity();
  // Name maps: entries plus their key strings (bucket arrays ignored).
  for (const auto &[K, V] : TypeByName)
    Bytes += K.capacity() + sizeof(V) + sizeof(void *);
  for (const auto &[K, V] : NamespaceByName)
    Bytes += K.capacity() + sizeof(V) + sizeof(void *);
  // Relation caches: the dense matrix when owned, else the lazy maps.
  Bytes += DistMatrix.capacity() * sizeof(int16_t);
  for (const auto &M : AncestorCache)
    Bytes += M.size() * (sizeof(TypeId) + sizeof(int) + sizeof(void *));
  return Bytes;
}
