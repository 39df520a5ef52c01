"""From raw conversation to model-ready graph.

Generates one synthetic session, shows the planted psychological
expression units, re-extracts them from the rendered text with the
keyword matcher, and assembles the temporal session graph.
"""

# psygat first: importing it pins BLAS to one thread, which holds only
# if numpy has not loaded yet
from psygat.datagen import DEFAULT_PERSONAS, generate_session
from psygat.embed import embed_sessions
from psygat.graph import build_graph, edge_attrs
from psygat.peu import CATEGORIES, DEFAULT_LEXICON, build_peu_tensor, keyword_extract

import numpy as np

session = generate_session(seed=42, persona=DEFAULT_PERSONAS[3], label=1)
print(f"session {session.id}: {session.T} utterances, label={session.label}, "
      f"persona={session.persona}")

for utt in session.utterances[:4]:
    print(f"\n[{utt.index}] Q: {utt.question}")
    print(f"    A: {utt.answer}")
    _, evidence = keyword_extract(utt.answer, DEFAULT_LEXICON)
    for cat, span in evidence:
        print(f"    -> {cat}: {span!r}")

peus = build_peu_tensor(session)
print("\nPEU tensor (rows = utterances, cols = categories):")
print(peus.astype(int))
print("column order:", ", ".join(c.split("_")[0] for c in CATEGORIES))

# the extractor recovers the planted annotations exactly at zero noise
assert all(np.array_equal(keyword_extract(u.answer, DEFAULT_LEXICON)[0], peus[u.index])
           for u in session.utterances)

graph = build_graph(session, embed_sessions([session], dim=64), peus)
# a graph holds node data only; batches derive its edges from node_peu
edges = edge_attrs(graph.node_peu)
print(f"\ngraph: {graph.T} nodes, text {graph.node_text.shape}, edges {edges.shape}")
print("first edge attribute (PEU change between turns 0 and 1):")
print(np.round(edges[0], 2))

print("\ncausal ground truth:")
for rec in session.causes[:3]:
    print(f"  utterance {rec['target']} ({rec['category']}) <- {rec['sources']}")
