#!/usr/bin/env python3
"""Reconstruction and serialization round trips."""

import os
import tempfile

import skewalg as sk

suite = sk.generate_model_suite()
inst = next(i for i in suite if i.name == "C2xB2.2a1")
S = inst.algebra
nb = inst.action.band_order  # element u*|B| + a of S is the pair (u, a)
print(f"model {inst.name}: |S| = {S.order}")

# Algebra -> groupoid: objects are the idempotents, morphisms the elements,
# endpoints read off s s* and s* s. The rebuilt system's identity morphisms
# are the objects' elements.
rec = sk.reconstruct(S)
objects = rec.groupoid.identity_of.tolist()
print("reconstructed objects:", [divmod(e, nb) for e in objects])
for s, (b, c) in enumerate(zip(rec.groupoid.dom.tolist(), rec.groupoid.cod.tolist())):
    print(f"  {divmod(s, nb)}: {divmod(objects[b], nb)} -> {divmod(objects[c], nb)}")

iso = sk.find_isomorphism(rec, inst.system)
print("reconstruction matches the original system:", iso is not None)

# Both round trips come back as the identity mapping, not merely isomorphic.
print("groupoid -> algebra -> groupoid is the identity:",
      sk.roundtrip_groupoid(inst.system).mapping == tuple(range(inst.system.morphism_count)))
print("algebra -> groupoid -> algebra is the identity:",
      sk.roundtrip_algebra(S).mapping == tuple(range(S.order)))

with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "model.json")
    sk.save_structure(path, S, extra={"name": inst.name})
    loaded = sk.load_structure(path)
    same = (loaded.join.tolist() == S.join.tolist()
            and loaded.meet.tolist() == S.meet.tolist()
            and list(loaded.star) == list(S.star))
    print("JSON round trip preserves every table:", same)
