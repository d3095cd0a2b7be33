import pytest

import relidistill as rd

# 65 everyday object names (multi-word and mixed granularity on purpose)
# for the full-vocabulary round-trip checks.
OBJECT_VOCAB_65 = [
    "alarm clock", "backpack", "batteries", "bed", "bicycle", "bottle",
    "bucket", "calculator", "calendar", "candles", "chair", "clipboards",
    "computer monitor", "coffee mug", "couch", "curtains", "desk lamp",
    "drill", "eraser", "exit sign", "fan", "file cabinet", "flipflops",
    "flowers", "folder", "fork", "glasses", "hammer", "helmet", "kettle",
    "keyboard", "knives", "lamp shade", "laptop", "marker", "mop", "mouse",
    "notebook", "oven", "paper clip", "pen", "pencil", "postit notes",
    "printer", "push pin", "radio", "refrigerator", "ruler", "scissors",
    "screwdriver", "shelf", "sink", "sneakers", "soda can", "speaker",
    "spoon", "table", "telephone", "toothbrush", "toys", "trash can",
    "television", "vacuum cleaner", "webcam", "window",
]

# Free-text answer shapes: ``{x}`` is an optional modifier followed by a
# class name, ``{a}`` its article (see free_text_answer).
TEMPLATES = (
    "just {x}", "It is {a} {x}.", "I think this is {a} {x}", "Looks like {a} {x} to me!",
    "probably {a} {x}, or maybe not", "The object is {a} {x}.",
)
MODIFIERS = ("", "small", "red", "old wooden", "broken", "shiny new")


def free_text_answer(template: str, modifier: str, name: str) -> str:
    """A teacher's free-text answer naming class ``name``."""
    x = f"{modifier} {name}".strip()
    return template.format(a="an" if x[0] in "aeiou" else "a", x=x)


@pytest.fixture(scope="session")
def object_vocab():
    return rd.ClassVocab(list(OBJECT_VOCAB_65))


@pytest.fixture(scope="session")
def small_blobs():
    """600 well-separated samples, 4 classes, 8 dims."""
    return rd.make_blobs(600, 4, 8, 0.5, seed=13)


@pytest.fixture(scope="session")
def small_teacher_setup(small_blobs):
    """Blobs plus three mid-quality independent teachers."""
    specs = [
        rd.SimTeacherSpec(a, "uniform-error", 0.0, seed=13) for a in (0.8, 0.7, 0.6)
    ]
    pl = rd.simulate_teachers(small_blobs, specs, n_classes=4)
    return small_blobs, pl
