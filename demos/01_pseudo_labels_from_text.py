"""From free-form teacher text to class pseudo-labels.

Frozen teacher models answer in prose, not class indices. This walk-through
shows how a response like "The object is an alarm clock." is embedded,
compared against the whole class-name matrix by one cosine call, and
assigned the argmax class, with no external model needed.
"""

import numpy as np

import relidistill as rd

vocab = rd.ClassVocab(["alarm clock", "bicycle", "kettle", "desk lamp"])
backend = rd.TrigramEmbedder()

responses = [
    "Alarm Clock",                         # verbatim, different casing
    "The object is an alarm clock.",       # wrapped in a sentence
    "a red bicycle leaning on a wall",     # descriptive
    "some kind of electric kettle",        # hedged
    "It looks like a lamp on a desk",      # paraphrased
]

print("class names:", vocab.names)
print()
for text in responses:
    query = rd.embed_text(text, backend)
    sims = rd.sts(query, vocab.class_matrix(backend))
    label = rd.assign_pseudo_label(rd.TeacherRecord("demo", 0, text), vocab, backend)
    pretty = "  ".join(f"{name}={s:.3f}" for name, s in zip(vocab.names, sims))
    print(f"{text!r}\n  -> {vocab.names[label]!r}   [{pretty}]")

# A precomputed table (text<TAB>f1 f2 ... fd) plugs in the same way; any
# sentence embedder can produce it offline. Here a tiny hand-made table
# shows the headline failure mode: a teacher answering "Audi" for a car.
print()
table = rd.PrecomputedTable(
    {
        "car": np.array([1.0, 0.0, 0.0]),
        "bicycle": np.array([0.0, 1.0, 0.0]),
        "Audi": np.array([0.9, 0.1, 0.05]),
    }
)
small_vocab = rd.ClassVocab(["car", "bicycle"])
label = rd.assign_pseudo_label(rd.TeacherRecord("demo", 0, "Audi"), small_vocab, table)
print(f"'Audi' under the precomputed table -> {small_vocab.names[label]!r}")
