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
  assert(Base->ancestorRowsComplete() &&
         "fill the base's ancestor rows before overlays attach");
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
  // Every proper prefix was interned by the parent chain above (one that
  // joins to "" is the root), so these lookups add nothing.
  size_t N = NI.Segments.size();
  for (size_t K = 0; K + 1 < N && K != NamespaceInfo::MaxPrefix; ++K)
    NI.Prefix[K] = getOrAddNamespace(joinStrings(
        std::vector<std::string>(NI.Segments.begin(),
                                 NI.Segments.begin() + K + 1),
        '.'));
  NamespaceId Id = static_cast<NamespaceId>(numNamespaces());
  if (N != 0 && N <= NamespaceInfo::MaxPrefix)
    NI.Prefix[N - 1] = Id;
  Namespaces.push_back(std::move(NI));
  NamespaceByName[FullName] = Id;
  return Id;
}

TypeId TypeSystem::addType(const std::string &Name, NamespaceId Ns,
                           TypeKind Kind, TypeId Base) {
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
  assert(static_cast<size_t>(T) - NumBaseTypes >= NumRows &&
         "supertypes changed after the type's ancestor row was filled");
  mutableType(T).BaseClass = BaseTy;
}

void TypeSystem::addInterface(TypeId T, TypeId Iface) {
  assert(type(Iface).Kind == TypeKind::Interface &&
         "addInterface target is not an interface");
  assert(static_cast<size_t>(T) - NumBaseTypes >= NumRows &&
         "supertypes changed after the type's ancestor row was filled");
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

void TypeSystem::fillAncestorRows() const {
  if (ancestorRowsComplete())
    return;
  assert(!RowsKeepAlive && "an adopted ancestor CSR covers every type");
  // One BFS over the supertype graph per row; the first time a type is
  // reached gives the minimal distance, matching the min in the td
  // recurrence. Dist is the scratch shared by every row (-1 = not reached
  // by this row) and is reset through the row's own type list. Overlay
  // rows climb into the base graph read-only.
  std::vector<int16_t> Dist(numTypes(), -1);
  std::vector<TypeId> Reached;
  for (size_t Row = NumRows; Row != Types.size(); ++Row) {
    TypeId T = static_cast<TypeId>(NumBaseTypes + Row);
    Reached.assign(1, T);
    Dist[T] = 0;
    for (size_t I = 0; I != Reached.size(); ++I) {
      int16_t D = Dist[Reached[I]];
      assert(D < INT16_MAX && "type distance overflows int16");
      for (TypeId S : immediateSupertypes(Reached[I]))
        if (Dist[S] < 0) {
          Dist[S] = static_cast<int16_t>(D + 1);
          Reached.push_back(S);
        }
    }
    std::sort(Reached.begin(), Reached.end());
    for (TypeId A : Reached) {
      RowEntries.push_back({A, Dist[A], 0});
      Dist[A] = -1;
    }
    assert(RowEntries.size() <= UINT32_MAX && "ancestor CSR overflows");
    RowOffsets.push_back(static_cast<uint32_t>(RowEntries.size()));
  }
  OffsetsV = RowOffsets.data();
  EntriesV = RowEntries.data();
  NumRows = Types.size(); // publish last
}

void TypeSystem::adoptAncestorRows(
    const uint32_t *Offsets, const AncestorEntry *Entries,
    std::shared_ptr<const void> KeepAlive) const {
  assert(!Base && "snapshot tables adopt into the base layer, not overlays");
  OffsetsV = Offsets;
  EntriesV = Entries;
  NumRows = Types.size();
  RowsKeepAlive = std::move(KeepAlive);
  RowOffsets = {};
  RowEntries = {};
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
  // The ancestor CSR, when owned (an adopted one lives in the mapping).
  Bytes += RowOffsets.capacity() * sizeof(uint32_t) +
           RowEntries.capacity() * sizeof(AncestorEntry);
  return Bytes;
}
