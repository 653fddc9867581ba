"""A three-function program for the tracer's arithmetic tests."""


def leaf(value):
    return value + 1


def middle(value):
    return leaf(leaf(value))


def top(value):
    return middle(value) + leaf(value)


class Codec:
    @classmethod
    def decode(cls, data):
        return cls, data

    @staticmethod
    def encode(data):
        return data

    def size(self):
        return leaf(0)
