package obs

// ProtoFields exposes the profile decoder's field walker to the
// external tests, which read a profile's frames too.
var ProtoFields = protoFields
